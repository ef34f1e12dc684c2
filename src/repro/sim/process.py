"""Coroutine processes for the simulation kernel.

A :class:`Process` wraps a generator that yields :class:`~repro.sim.events.Event`
objects.  The process is itself an event: it triggers with the generator's
return value when the generator finishes, which lets processes wait for each
other (``yield env.process(...)``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from .events import PENDING, URGENT, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process", "Initialize"]


class Initialize(Event):
    """Internal bootstrap event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        env.schedule(self, URGENT)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process event triggers when the generator terminates: successfully
    with its return value, or failed with the uncaught exception.
    """

    __slots__ = ("_generator", "_detached")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise ValueError(f"{generator!r} is not a generator")
        # Event.__init__'s fields, assigned in place: every process start
        # in the simulator runs this.
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        #: Started by Environment.spawn: nobody waits on the exit.
        self._detached = False
        Initialize(env, self)

    def __repr__(self) -> str:
        return f"<Process({self.name}) object at {id(self):#x}>"

    @property
    def name(self) -> str:
        """Name of the wrapped generator function."""
        return getattr(self._generator, "__name__", str(self._generator))

    @property
    def is_alive(self) -> bool:
        """``True`` until the wrapped generator has terminated."""
        return self._value is PENDING

    def _resume(self, event: Event) -> None:
        """Advance the generator with the state of ``event``."""
        env = self.env
        env._active_proc = self
        generator = self._generator

        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event._defused = True
                    next_event = generator.throw(event._value)
            except StopIteration as stop:
                # Generator finished: the process event succeeds.  A
                # spawned process nobody waits on has nothing to
                # dispatch, so it is processed in place.
                self._ok = True
                self._value = stop.value
                if self._detached and not self.callbacks:
                    self.callbacks = None
                else:
                    env.schedule(self)
                break
            except BaseException as exc:  # noqa: BLE001 - deliberate catch-all
                # Generator died: the process event fails.  If nobody waits
                # on this process the exception will escalate from run().
                self._ok = False
                self._value = exc
                env.schedule(self)
                break

            # The generator yielded a new event to wait for.
            if next_event is None:
                event = _fail_yield(self, next_event)
                continue
            if not isinstance(next_event, Event):
                event = _fail_yield(self, next_event)
                continue
            if next_event.env is not env:
                event = _fail_yield(self, next_event, reason="different environment")
                continue

            if next_event.callbacks is not None:
                # Event not yet processed: register and suspend.
                next_event.callbacks.append(self._resume)
                break

            # Event already processed: resume immediately with its state.
            event = next_event

        env._active_proc = None


class _YieldError(Event):
    """Failed pseudo-event used to report an invalid yield."""

    __slots__ = ()

    def __init__(self, env: "Environment", message: str) -> None:
        super().__init__(env)
        self._ok = False
        self._value = RuntimeError(message)
        self._defused = False


def _fail_yield(process: Process, item: Any, reason: str = "not an event") -> Event:
    """Build a failed event describing an invalid ``yield`` from a process."""
    message = f"invalid yield value {item!r} from {process.name} ({reason})"
    return _YieldError(process.env, message)
