"""The clock-agnostic execution kernel: one protocol, two clocks.

Everything above the kernel — servers, batchers, caches, balancers,
autoscalers, fault injectors, telemetry — is *policy*: coroutine
processes that yield events, put/get items on stores, and read ``now``.
None of it may care whether ``now`` is a virtual simulation clock or a
wall clock.  :class:`ExecutionBackend` is the contract that makes that
explicit:

- :class:`~repro.kernel.virtual.VirtualTimeBackend` (the discrete-event
  :class:`~repro.sim.engine.Environment`) advances ``now`` in jumps from
  one scheduled event to the next — a 24-hour day runs in milliseconds
  and every run is bit-reproducible.
- :class:`~repro.kernel.realtime.AsyncioBackend` maps the identical
  primitives onto :mod:`asyncio`: the dispatch loop sleeps real
  (optionally scaled) wall time between events, and external inputs —
  live HTTP requests — inject events mid-run.

Policy code must obtain time and scheduling exclusively through this
protocol.  Direct ``heapq`` event queues, ``time.time()`` /
``time.monotonic()`` reads, and ``asyncio.sleep()`` calls are banned
outside the kernel (enforced by ``tests/kernel/test_clock_hygiene.py``
and the ruff ``TID251`` configuration in ``pyproject.toml``).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Protocol, runtime_checkable

from ..sim.events import AllOf, AnyOf, Event, Timeout
from ..sim.process import Process

__all__ = ["ExecutionBackend", "is_realtime", "run_until"]


@runtime_checkable
class ExecutionBackend(Protocol):
    """What policy code may ask of its execution substrate.

    The protocol is deliberately identical to the surface of the DES
    :class:`~repro.sim.engine.Environment` — that class *is* the
    reference implementation — so every existing component runs
    unmodified under any conforming backend.  Synchronization
    primitives (:class:`~repro.sim.stores.Store`,
    :class:`~repro.sim.resources.Resource`,
    :class:`~repro.sim.containers.Container`) are built purely on
    ``schedule``/``now`` and therefore work against any backend.
    """

    #: Current time in seconds (virtual or wall, backend's choice).  A
    #: plain attribute: policy code reads it, only the kernel moves it.
    now: float

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        ...

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`~repro.sim.events.Event`."""
        ...

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` seconds from ``now``."""
        ...

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a coroutine process from ``generator``; the returned
        event succeeds with the generator's return value."""
        ...

    def spawn(self, generator: Generator[Event, Any, Any]) -> None:
        """Start a fire-and-forget process from ``generator``.

        It starts exactly as with :meth:`process`, but nothing can wait
        on it: a successful finish schedules no exit event, and a
        failure still escalates from the dispatch loop.
        """
        ...

    def all_of(self, events) -> AllOf:
        """Condition that waits for all of ``events``."""
        ...

    def any_of(self, events) -> AnyOf:
        """Condition that waits for any of ``events``."""
        ...

    # -- scheduling -------------------------------------------------------

    def schedule(self, event: Event, priority: int = 1, delay: float = 0.0) -> None:
        """Put a triggered ``event`` on the dispatch queue after ``delay``."""
        ...

    def schedule_at(self, event: Event, at: float, priority: int = 1) -> None:
        """Put a triggered ``event`` on the queue at absolute time ``at``."""
        ...

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        ...


def is_realtime(env: Any) -> bool:
    """``True`` when ``env`` dispatches against a wall clock.

    Policy code should almost never need this; it exists for run
    harnesses that must pick between :meth:`Environment.run` and
    :meth:`AsyncioBackend.run_async`, and for diagnostics.
    """
    return bool(getattr(env, "realtime", False))


def run_until(env: Any, until: Any = None) -> Any:
    """Drive ``env`` to completion regardless of its clock.

    A virtual-time backend runs inline via
    :meth:`~repro.sim.engine.Environment.run`; a realtime backend spins
    up an asyncio loop for :meth:`~repro.kernel.realtime.AsyncioBackend.run_async`.
    This is the single entry point experiment harnesses use, so the
    same runner source drives both clocks.
    """
    if is_realtime(env):
        import asyncio

        return asyncio.run(env.run_async(until=until))
    return env.run(until=until)
