"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the coroutine-process model popularized by SimPy: a
*process* is a Python generator that yields :class:`Event` objects, and the
:class:`~repro.sim.engine.Environment` resumes it when the yielded event
triggers.  Events carry a value (delivered to the waiting process) or an
exception (thrown into the waiting process).

Only the pieces needed by the serving simulator are implemented, but they are
implemented completely: callbacks, ok/defused bookkeeping, and composite
conditions (:class:`AllOf` / :class:`AnyOf`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .engine import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "ConditionValue",
]


class _PendingType:
    """Unique sentinel for the value of an event that has not triggered."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<PENDING>"


#: Sentinel stored in :attr:`Event._value` until the event triggers.
PENDING = _PendingType()

#: Scheduling priority for events that must run before same-time events.
URGENT = 0

#: Default scheduling priority.
NORMAL = 1


class Event:
    """An event that may happen at some point in simulated time.

    An event goes through up to three states:

    - *untriggered*: initial state, not scheduled.
    - *triggered*: scheduled on the environment's queue with a value.
    - *processed*: callbacks have run; waiting processes were resumed.

    Processes wait for an event by ``yield``-ing it.  When the event is
    processed, each waiting process receives :attr:`value` (or has
    :attr:`value` raised into it when the event failed).

    Events are the single most-allocated objects in a simulation, so the
    whole hierarchy is ``__slots__``-based: no per-instance ``__dict__``.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__}() object at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """``True`` if the event has been scheduled (has a value)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have run and the event is finished."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded.

        Only meaningful once the event has triggered.
        """
        if self._value is PENDING:
            raise AttributeError("value of the event is not yet available")
        return self._ok

    @property
    def defused(self) -> bool:
        """``True`` if the failure of this event has been handled.

        A failed event whose exception was never delivered to a process
        escalates to :meth:`Environment.run` to avoid silently losing
        errors.  Yielding a failed event defuses it.
        """
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    @property
    def value(self) -> Any:
        """The value of the event, or the exception if it failed."""
        if self._value is PENDING:
            raise AttributeError("value of the event is not yet available")
        return self._value

    def trigger(self, event: "Event") -> None:
        """Trigger with the state (ok/value) of another event.

        Used as a callback to chain events together.
        """
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    def succeed(self, value: Any = None) -> "Event":
        """Schedule the event as successful with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event as failed with ``exception``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])


class Timeout(Event):
    """An event that triggers after ``delay`` units of simulated time."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, priority=NORMAL, delay=delay)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return f"<Timeout(delay={self._delay}) object at {id(self):#x}>"


class ConditionValue:
    """Result of a condition: an ordered mapping of triggered events to values."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Event] = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        pairs = ", ".join(f"{event!r}: {event._value!r}" for event in self.events)
        return f"<ConditionValue {{{pairs}}}>"

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def keys(self) -> List[Event]:
        return list(self.events)

    def values(self) -> List[Any]:
        return [event._value for event in self.events]

    def items(self):
        return [(event, event._value) for event in self.events]

    def todict(self) -> dict:
        return {event: event._value for event in self.events}


class Condition(Event):
    """Composite event that triggers when ``evaluate`` is satisfied.

    The condition's value is a :class:`ConditionValue` holding every event
    (in declaration order) that had triggered by the time the condition
    itself triggered.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[List[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        # Immediately evaluate in case the condition is trivially satisfied
        # (e.g. an empty AllOf or one with only-processed events).
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

        if self._value is PENDING and self._evaluate(self._events, self._count):
            self.succeed(ConditionValue())
            self._populate_value(self._value)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition) and event._value is not PENDING:
                event._populate_value(value)
            elif event.callbacks is None:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count += 1
        if not event._ok:
            # Abort on the first failure; propagate the exception.
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(ConditionValue())
            self._populate_value(self._value)

    @staticmethod
    def all_events(events: List[Event], count: int) -> bool:
        """Evaluator: all events have triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: List[Event], count: int) -> bool:
        """Evaluator: at least one event has triggered (or there are none)."""
        return count > 0 or len(events) == 0


class AllOf(Condition):
    """Condition that triggers once all of ``events`` have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once any of ``events`` has succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
