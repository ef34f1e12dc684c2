"""Virtual-time backend: the deterministic discrete-event clock.

The DES :class:`~repro.sim.engine.Environment` is the kernel's reference
implementation of :class:`~repro.kernel.base.ExecutionBackend`: time
jumps from one scheduled event to the next, ties break on
(priority, insertion order), and a run is a pure function of its seed.
Every pinned golden in this repository (closed-loop, open-loop, faces,
fleet, cluster) is produced under this backend and stays bit-identical
across the kernel extraction — the refactor moved the abstraction
boundary, not the event loop.

``VirtualTimeBackend`` is an alias, not a wrapper: aliasing guarantees
there is exactly one DES dispatch loop in the codebase and that the
hot path (timed by ``perf/run.py``) pays nothing for the protocol.
"""

from __future__ import annotations

from ..sim.engine import EmptySchedule, Environment, StopSimulation

__all__ = ["VirtualTimeBackend", "EmptySchedule", "StopSimulation"]

#: The discrete-event simulation backend (alias of
#: :class:`repro.sim.engine.Environment`).
VirtualTimeBackend = Environment
