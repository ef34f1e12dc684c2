"""The simulation environment: event queue and main loop.

Pending events live in one ``heapq`` binary heap of
``(time, priority, eid, event)`` tuples, so dispatch follows the exact
``(time, priority, insertion order)`` total order and a run is
bit-identical every time it is repeated.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

from .events import NORMAL, PENDING, AllOf, AnyOf, Event, Timeout
from .process import Process

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]


class EmptySchedule(Exception):
    """Raised when the event queue is empty and the simulation cannot advance."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at the until-event."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a monotonically increasing float (seconds, by convention, in
    this repository).  Events scheduled at the same time are processed in
    (priority, insertion order), which makes runs fully deterministic.

    ``now``, the current simulation time, is a plain attribute: policy
    code reads it and only the kernel moves it
    (``tests/kernel/test_clock_hygiene.py`` fails on a write outside
    ``repro.sim`` and ``repro.kernel``).
    """

    __slots__ = ("now", "_queue", "_eid", "_active_proc")

    def __init__(self, initial_time: float = 0.0) -> None:
        self.now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_proc: Optional[Process] = None

    def __repr__(self) -> str:
        return f"<Environment(now={self.now}, pending={len(self._queue)})>"

    @property
    def pending(self) -> int:
        """Number of scheduled-but-undispatched events."""
        return len(self._queue)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between events)."""
        return self._active_proc

    # -- event factories --------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` that triggers after ``delay``.

        The construction + scheduling sequence is inlined here — this is
        the single most-executed allocation site in the simulator.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        timeout = Timeout.__new__(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._ok = True
        timeout._defused = False
        timeout._value = value
        timeout._delay = delay
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self.now + delay, NORMAL, eid, timeout))
        return timeout

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a new :class:`Process` from ``generator``."""
        return Process(self, generator)

    def spawn(self, generator: Generator[Event, Any, Any]) -> None:
        """Start a fire-and-forget process from ``generator``.

        The process starts exactly as with :meth:`process`: the same
        ``Initialize`` event, at the same priority and queue position.
        Nothing is returned, so nothing can wait on the process, and a
        successful finish schedules no exit event: the process is marked
        processed in place.  Dropping that callback-free dispatch leaves
        the relative order of every other event unchanged.  A failure
        still schedules the failed exit, so :meth:`run` raises at the
        same dispatch as for an unwaited :meth:`process`.
        """
        Process(self, generator)._detached = True

    def all_of(self, events) -> AllOf:
        """Condition that waits for all of ``events``."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Condition that waits for any of ``events``."""
        return AnyOf(self, events)

    # -- scheduling and the main loop -------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put a triggered ``event`` on the queue after ``delay``."""
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (self.now + delay, priority, eid, event))

    def schedule_at(self, event: Event, at: float, priority: int = NORMAL) -> None:
        """Put a triggered ``event`` on the queue at absolute time ``at``.

        Unlike :meth:`schedule`, which computes ``now + delay``, this
        lands the event at exactly the given float.  Cross-environment
        coordinators (``repro.cluster``) need that exactness: a delivery
        computed as an absolute time must fire at the bit-identical
        time, and ``now + (at - now)`` can be one ulp off.
        """
        if at < self.now:
            raise ValueError(f"at ({at}) must be >= now ({self.now})")
        eid = self._eid + 1
        self._eid = eid
        heappush(self._queue, (at, priority, eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the next scheduled event.

        Raises :class:`EmptySchedule` when there is nothing left to do.
        This is THE dispatch semantics; :meth:`run` inlines the same
        steps, so interleaving :meth:`step` with :meth:`run` gives the
        event order of a pure :meth:`run` (pinned by
        ``tests/sim/test_engine.py``).  A :class:`StopSimulation` raised
        by an until-event callback propagates to the caller.
        """
        try:
            item = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        self.now = item[0]
        event = item[3]
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody handled: escalate to the caller.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until the event queue is exhausted.
        - a number: dispatch every event that sorts before
          ``(until, NORMAL + 1, eid)``, ``eid`` being the next insertion
          number, which the call consumes: what a stop event queued at
          ``until`` with priority ``NORMAL + 1`` would let through,
          events scheduled during the run included.  Then set ``now``
          to exactly ``until`` (even if no event occurs then) and
          return ``None``.
        - an :class:`Event`: run until that event has been processed and
          return its value (raising its exception if it failed).
        """
        if until is None:
            until_event: Optional[Event] = None
        elif isinstance(until, Event):
            until_event = until
            if until_event.callbacks is None:
                # Already processed before run() was called.
                if until_event._ok:
                    return until_event._value
                raise until_event._value
            until_event.callbacks.append(_stop_simulation)
        else:
            self._run_to(float(until))
            return None

        # Inlined event loop (equivalent to `while True: self.step()`).
        # This is the hottest code in the simulator: local bindings for the
        # queue and heappop, and no per-event method call or assert,
        # measurably raise events/sec on large sweeps.
        queue = self._queue
        try:
            while True:
                try:
                    item = heappop(queue)
                except IndexError:
                    raise EmptySchedule() from None
                self.now = item[0]
                event = item[3]
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failed event nobody handled: escalate to the caller.
                    raise event._value
        except StopSimulation as stop:
            finished: Event = stop.args[0]
            if finished._ok:
                return finished._value
            raise finished._value from None
        except EmptySchedule:
            if until_event is not None and until_event._value is PENDING:
                raise RuntimeError(
                    f"no scheduled events left but until event {until_event!r} "
                    "has not triggered"
                ) from None
        return None

    def _run_to(self, at: float) -> None:
        """``run(until=at)`` for a number: dispatch up to a bound, no event.

        The bound is the heap key a stop event queued now at ``at`` with
        priority ``NORMAL + 1`` would get; its eid is consumed so every
        later eid is unchanged.  Eids are unique, so ``queue[0] < bound``
        is exactly "sorts before that stop event", and events scheduled
        during the run (larger eids) obey it too.
        """
        if at < self.now:
            raise ValueError(f"until ({at}) must be >= now ({self.now})")
        eid = self._eid + 1
        self._eid = eid
        bound = (at, NORMAL + 1, eid)
        queue = self._queue
        while queue and queue[0] < bound:
            item = heappop(queue)
            self.now = item[0]
            event = item[3]
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                # A failed event nobody handled: escalate to the caller.
                raise event._value
        self.now = at


def _stop_simulation(event: Event) -> None:
    """Callback attached to the until-event: unwind the main loop."""
    raise StopSimulation(event)
