"""The fault injector: turns profiles into deterministic fault timelines.

One injector owns the fault schedule of one experiment.  Targets are
attached explicitly (server nodes with their index, the load balancer,
brokers); ``start()`` then spawns one simulation process per
(profile, target) pair.  Fault times are drawn from streams named after
the profile kind and target identity, so adding a profile never
perturbs the schedule of another, and the same seed always produces the
same fault timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from ..kernel import ExecutionBackend, RandomStreams
from .health import BrokerHealth, DeviceHealth
from .profiles import (
    BrokerFault,
    FaultPlan,
    GpuCrash,
    NodeOutage,
    PcieThrottle,
    SlowNode,
)

__all__ = ["FaultInjector", "FaultEvent"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for the experiment's fault log."""

    at_time: float
    kind: str
    target: str
    duration_seconds: float


class FaultInjector:
    """Drives the fault timeline of one simulation."""

    def __init__(self, env: ExecutionBackend, streams: RandomStreams, plan: FaultPlan) -> None:
        self.env = env
        self.streams = streams
        self.plan = plan
        self.events: List[FaultEvent] = []
        self._nodes = []  # (index, node, balancer)
        self._brokers = []
        self._started = False

    def __repr__(self) -> str:
        return f"<FaultInjector profiles={len(self.plan.profiles)} events={len(self.events)}>"

    @property
    def fault_count(self) -> int:
        return len(self.events)

    def register_metrics(self, registry) -> None:
        """Publish the fault log size as a registry view."""
        registry.counter_fn(
            "repro_faults_injected_total",
            "Faults injected from the experiment's fault plan",
            lambda: self.fault_count,
        )

    # -- target registration -------------------------------------------------

    def attach_node(self, node, index: int = 0, balancer=None) -> None:
        """Register one server node (and optionally its balancer, so
        node outages are visible to health-aware dispatch)."""
        for gpu in node.gpus:
            if gpu.health is None:
                gpu.health = DeviceHealth(self.env)
            if gpu.link.health is None:
                gpu.link.health = DeviceHealth(self.env)
        self._nodes.append((index, node, balancer))

    def attach_fleet(self, fleet) -> None:
        """Register every node of a :class:`~repro.serving.fleet.Fleet`."""
        for index, node in enumerate(fleet.nodes):
            self.attach_node(node, index=index, balancer=fleet.balancer)

    def attach_broker(self, broker) -> None:
        """Register a broker; loss probability comes from the plan's
        :class:`BrokerFault` profile (if any)."""
        profile = next(
            (p for p in self.plan.profiles if isinstance(p, BrokerFault)), None
        )
        if broker.health is None:
            rng = self.streams.stream(f"faults:broker:{broker.name}:loss")
            broker.health = BrokerHealth(
                self.env,
                rng,
                loss_probability=profile.loss_probability if profile else 0.0,
                redelivery_seconds=profile.redelivery_seconds if profile else 50e-3,
            )
        self._brokers.append(broker)

    # -- schedule ------------------------------------------------------------

    def start(self) -> None:
        """Spawn the fault processes (idempotent)."""
        if self._started:
            return
        self._started = True
        for profile in self.plan.profiles:
            if isinstance(profile, GpuCrash):
                for index, node, _ in self._nodes:
                    for gpu in node.gpus:
                        self._spawn(
                            profile.kind,
                            f"node{index}:{gpu.name}",
                            profile.mtbf_seconds,
                            profile.restart_seconds,
                            lambda d, g=gpu: g.health.fail(d),
                        )
            elif isinstance(profile, SlowNode):
                for index, node, _ in self._nodes:
                    self._spawn(
                        profile.kind,
                        f"node{index}",
                        profile.mtbf_seconds,
                        profile.duration_seconds,
                        lambda d, n=node, s=profile.slowdown: self._degrade(n, s, d),
                    )
            elif isinstance(profile, PcieThrottle):
                for index, node, _ in self._nodes:
                    for gpu in node.gpus:
                        self._spawn(
                            profile.kind,
                            f"node{index}:{gpu.name}.pcie",
                            profile.mtbf_seconds,
                            profile.duration_seconds,
                            lambda d, g=gpu, f=profile.bandwidth_factor: self._throttle(
                                g.link, f, d
                            ),
                        )
            elif isinstance(profile, NodeOutage):
                for index, node, balancer in self._nodes:
                    self._spawn(
                        profile.kind,
                        f"node{index}",
                        profile.mtbf_seconds,
                        profile.duration_seconds,
                        lambda d, i=index, n=node, b=balancer: self._node_outage(
                            n, b, i, d
                        ),
                    )
            elif isinstance(profile, BrokerFault):
                for broker in self._brokers:
                    self._spawn(
                        profile.kind,
                        f"broker:{broker.name}",
                        profile.mtbf_seconds,
                        profile.duration_seconds,
                        lambda d, b=broker: b.health.fail(d),
                    )

    def _spawn(self, kind, target, mtbf, duration, trigger) -> None:
        self.env.spawn(self._hazard(kind, target, mtbf, duration, trigger))

    def _hazard(self, kind, target, mtbf, duration, trigger) -> Generator:
        """One Poisson fault process against one target."""
        rng = self.streams.stream(f"faults:{kind}:{target}")
        if self.plan.start_after_seconds > 0:
            yield self.env.timeout(self.plan.start_after_seconds)
        while True:
            yield self.env.timeout(rng.expovariate(1.0 / mtbf))
            self.events.append(FaultEvent(self.env.now, kind, target, duration))
            trigger(duration)
            # Let the fault play out before re-arming the hazard, so the
            # configured duty cycle (duration / (mtbf + duration)) holds.
            yield self.env.timeout(duration)

    # -- fault actions ---------------------------------------------------------

    def _degrade(self, node, slowdown: float, duration: float) -> None:
        for gpu in node.gpus:
            gpu.health.slowdown = slowdown
        self.env.spawn(self._restore_slowdown(node, duration))

    def _restore_slowdown(self, node, duration: float) -> Generator:
        yield self.env.timeout(duration)
        for gpu in node.gpus:
            gpu.health.slowdown = 1.0

    def _throttle(self, link, factor: float, duration: float) -> None:
        link.health.bandwidth_factor = factor
        self.env.spawn(self._restore_bandwidth(link, duration))

    def _restore_bandwidth(self, link, duration: float) -> Generator:
        yield self.env.timeout(duration)
        link.health.bandwidth_factor = 1.0

    def _node_outage(self, node, balancer, index: int, duration: float) -> None:
        for gpu in node.gpus:
            gpu.health.fail(duration)
        if balancer is not None:
            balancer.set_node_up(index, False)
            self.env.spawn(self._restore_node(balancer, index, duration))

    def _restore_node(self, balancer, index: int, duration: float) -> Generator:
        yield self.env.timeout(duration)
        balancer.set_node_up(index, True)
