"""Fault injection for the simulated serving fleet.

The paper measures a healthy testbed; production serving is defined by
how the system behaves when GPUs stall, brokers drop messages, and
queues overflow.  This package injects those degradations into the
simulation deterministically (every fault time is drawn from a named
:class:`~repro.sim.RandomStreams` stream), so robustness experiments
are exactly as reproducible as the paper-figure runs:

- :class:`GpuCrash` — a GPU instance dies and restarts; queued kernels
  stall until the restart completes.
- :class:`SlowNode` — transient degradation (thermal throttling, noisy
  neighbour): every kernel on the node runs ``slowdown`` times longer.
- :class:`PcieThrottle` — link contention: transfers run at a fraction
  of calibrated bandwidth.
- :class:`NodeOutage` — the whole node drops out of the load balancer's
  healthy set (and its GPUs stall) for the outage duration.
- :class:`BrokerFault` — broker outages block producers/consumers, and
  a delivery-loss probability exercises the redelivery semantics
  (at-least-once for kafka/redis, loss for fused).

A :class:`FaultPlan` bundles profiles; :class:`FaultInjector` attaches
them to nodes/brokers and drives the on/off timeline.  With no plan
configured nothing is attached and the serving stack is bit-identical
to the fault-free simulation.
"""

from .health import BrokerHealth, DeviceHealth
from .injector import FaultEvent, FaultInjector
from .profiles import (
    BrokerFault,
    FaultPlan,
    GpuCrash,
    NodeOutage,
    PcieThrottle,
    SlowNode,
    gpu_crash_plan,
)
from .experiment import FaultSweepPoint, sweep_fault_rates

__all__ = [
    "BrokerFault",
    "BrokerHealth",
    "DeviceHealth",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSweepPoint",
    "GpuCrash",
    "NodeOutage",
    "PcieThrottle",
    "SlowNode",
    "gpu_crash_plan",
    "sweep_fault_rates",
]
