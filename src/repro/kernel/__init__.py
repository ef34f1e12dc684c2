"""Clock-agnostic execution kernel.

One protocol (:class:`ExecutionBackend`), two clocks:

- :class:`VirtualTimeBackend` — the deterministic discrete-event loop
  (alias of :class:`repro.sim.engine.Environment`); every golden result
  in this repository is produced under it.
- :class:`AsyncioBackend` — the same primitives dispatched against the
  wall clock on :mod:`asyncio`, with ``time_scale`` compression and a
  deterministic ``fast_forward`` mode.

Policy code receives a backend and never imports a clock:
``repro.core``, ``repro.serving``, ``repro.cache``, ``repro.brokers``,
``repro.apps``, and ``repro.telemetry`` run unmodified under either.
The event/process/store primitives live in :mod:`repro.sim` and are
shared by both backends; they are re-exported here so new policy code
can depend on ``repro.kernel`` alone.
"""

from ..sim.containers import Container
from ..sim.events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from ..sim.process import Initialize, Process
from ..sim.resources import PriorityResource, Request, Resource
from ..sim.rng import RandomStreams
from ..sim.stores import Store
from .base import ExecutionBackend, is_realtime, run_until
from .realtime import AsyncioBackend
from .virtual import EmptySchedule, StopSimulation, VirtualTimeBackend

__all__ = [
    "ExecutionBackend",
    "VirtualTimeBackend",
    "AsyncioBackend",
    "is_realtime",
    "run_until",
    "EmptySchedule",
    "StopSimulation",
    # Shared primitives (implemented once, used by both clocks).
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Container",
    "Event",
    "Initialize",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "Store",
    "Timeout",
]
