"""Wall-clock backend: the same kernel primitives on asyncio.

:class:`AsyncioBackend` subclasses the DES
:class:`~repro.sim.engine.Environment` so that every event, process,
store, resource, and container implementation is shared *by identity* —
the only thing replaced is the dispatch loop, which sleeps real time
between events instead of jumping the clock.  Policy code (servers,
batchers, caches, balancers, telemetry) cannot tell the difference;
that is the point.

Three clock modes:

- ``time_scale=1.0`` (default): one simulated second per wall second —
  live serving.
- ``time_scale=S``: S simulated seconds per wall second — replay a
  recorded 24-hour trace through the live stack in 24/S hours
  ("time-compressed" sim-vs-live comparison).
- ``fast_forward=True``: never sleep; dispatch events back-to-back at
  their scheduled times exactly like the DES loop (but under the
  asyncio driver, yielding to the loop so concurrent I/O still runs).
  With no external input this is deterministic and produces metrics
  identical to the virtual backend — the property the parity tests pin.

External inputs (live HTTP handlers) run as asyncio tasks on the same
loop.  They inject work by calling ordinary kernel methods
(``env.process(...)``, ``store.put(...)``, ``env.timeout(...)``): every
``schedule``, ``schedule_at`` and ``timeout`` wakes a parked dispatch
loop, so injected events are picked up immediately.  While the loop is
dispatching, that wake-up costs one attribute check.  Call
:meth:`touch` first so ``now`` reflects the wall clock at injection time
(between dispatches the cached ``now`` lags).
"""

from __future__ import annotations

import asyncio
import time
from heapq import heappop
from typing import Any, Optional

from ..sim.engine import Environment, StopSimulation, _stop_simulation
from ..sim.events import NORMAL, PENDING, Event, Timeout

__all__ = ["AsyncioBackend"]

#: Dispatch at most this many events before yielding to the asyncio
#: loop, so a burst of same-time kernel work cannot starve socket I/O.
_DISPATCH_SLICE = 64


class AsyncioBackend(Environment):
    """Execution backend dispatching kernel events against the wall clock."""

    __slots__ = (
        "time_scale",
        "fast_forward",
        "_wall_origin",
        "_virtual_origin",
        "_wakeup",
        "_parked",
        "_stop_requested",
        "_running",
    )

    #: Marks this backend as wall-clock driven (see
    #: :func:`repro.kernel.base.is_realtime`).
    realtime = True

    def __init__(
        self,
        initial_time: float = 0.0,
        *,
        time_scale: float = 1.0,
        fast_forward: bool = False,
    ) -> None:
        super().__init__(initial_time)
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.time_scale = float(time_scale)
        self.fast_forward = bool(fast_forward)
        self._wall_origin: Optional[float] = None
        self._virtual_origin = float(initial_time)
        self._wakeup: Optional[asyncio.Event] = None
        #: True only while the dispatch loop sleeps in :meth:`_sleep_wall`.
        self._parked = False
        self._stop_requested = False
        self._running = False

    def __repr__(self) -> str:
        mode = "fast-forward" if self.fast_forward else f"x{self.time_scale:g}"
        return (
            f"<AsyncioBackend(now={self.now:.6f}, {mode}, "
            f"pending={len(self._queue)})>"
        )

    # -- clock -------------------------------------------------------------

    def wall_now(self) -> float:
        """Current wall-clock reading mapped into kernel time.

        Before :meth:`run_async` starts (or in fast-forward mode) this
        is simply the kernel's current time.
        """
        if self._wall_origin is None or self.fast_forward:
            return self.now
        elapsed = time.monotonic() - self._wall_origin
        return self._virtual_origin + elapsed * self.time_scale

    def touch(self) -> float:
        """Advance ``now`` to the wall clock; returns the new ``now``.

        External injectors (HTTP handlers, signal handlers) call this
        before creating events so timestamps — request arrival times,
        batcher deadlines — reflect real time rather than the time of
        the last dispatched event.
        """
        wall = self.wall_now()
        if wall > self.now:
            self.now = wall
        return self.now

    # -- scheduling (poke the parked dispatch loop) -----------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        # The base method pushes onto the queue without calling schedule().
        timeout = Environment.timeout(self, delay, value)
        if self._parked:
            self._wakeup.set()
        return timeout

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        super().schedule(event, priority, delay)
        self._poke()

    def schedule_at(self, event: Event, at: float, priority: int = NORMAL) -> None:
        super().schedule_at(event, at, priority)
        self._poke()

    def _poke(self) -> None:
        # A loop that is dispatching re-reads the queue on its own.
        if self._parked:
            self._wakeup.set()

    def request_stop(self) -> None:
        """Ask the dispatch loop to exit after the in-flight event."""
        self._stop_requested = True
        self._poke()

    # -- asyncio bridging --------------------------------------------------

    def as_future(self, event: Event) -> "asyncio.Future":
        """An :class:`asyncio.Future` resolving with ``event``'s outcome.

        Lets plain coroutines (HTTP handlers) ``await`` kernel events:
        the future receives the event's value, or its exception if the
        event failed (failure is defused — awaiting counts as handling).
        """
        future = asyncio.get_running_loop().create_future()

        def _resolve(ev: Event) -> None:
            if future.cancelled():
                ev._defused = True
                return
            if ev._ok:
                future.set_result(ev._value)
            else:
                ev._defused = True
                future.set_exception(ev._value)

        if event.callbacks is None:  # already processed
            _resolve(event)
        else:
            event.callbacks.append(_resolve)
        return future

    # -- the wall-clock dispatch loop --------------------------------------

    def run(self, until: Any = None) -> Any:
        raise RuntimeError(
            "AsyncioBackend dispatches on a wall clock; use "
            "'await env.run_async(until=...)' (or repro.kernel.run_until)"
        )

    async def run_async(self, until: Any = None, *, stop_on_empty: Optional[bool] = None) -> Any:
        """Dispatch events against the wall clock until done.

        ``until`` follows :meth:`Environment.run` semantics (``None``,
        a time, or an event).  ``stop_on_empty`` controls what an empty
        queue means: ``True`` returns (DES drain semantics), ``False``
        parks until external input schedules more work (live serving).
        The default is ``True`` only when ``until`` is ``None`` — a
        pending until-event implies more work is expected.

        :meth:`request_stop` interrupts the loop from any task or
        signal handler; the loop then returns ``None``.
        """
        if self._running:
            raise RuntimeError("run_async() is already driving this backend")
        if stop_on_empty is None:
            stop_on_empty = until is None

        until_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
            else:
                at = float(until)
                if at < self.now:
                    raise ValueError(f"until ({at}) must be >= now ({self.now})")
                until_event = Event(self)
                until_event._ok = True
                until_event._value = None
                # schedule_at, not schedule(delay=at - now): the relative
                # form lands one ulp off `at` for pathological floats,
                # which would fork the stop time from the virtual backend.
                self.schedule_at(until_event, at, priority=NORMAL + 1)
            if until_event.callbacks is None:
                if until_event._ok:
                    return until_event._value
                raise until_event._value
            until_event.callbacks.append(_stop_simulation)

        self._running = True
        self._stop_requested = False
        self._wakeup = asyncio.Event()
        self._wall_origin = time.monotonic()
        self._virtual_origin = self.now
        queue = self._queue
        dispatched_in_slice = 0
        try:
            while not self._stop_requested:
                if not queue:
                    if stop_on_empty:
                        break
                    await self._sleep_wall(None)
                    continue
                target = queue[0][0]
                if not self.fast_forward:
                    wall = self.wall_now()
                    if target > wall:
                        await self._sleep_wall((target - wall) / self.time_scale)
                        continue

                item = heappop(queue)
                if self.fast_forward:
                    self.now = item[0]
                else:
                    # Stamp dispatch with real time: latency measured on
                    # this backend includes genuine scheduling overhead.
                    wall = self.wall_now()
                    self.now = wall if wall > item[0] else item[0]
                event = item[3]
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value

                dispatched_in_slice += 1
                if dispatched_in_slice >= _DISPATCH_SLICE:
                    dispatched_in_slice = 0
                    await asyncio.sleep(0)  # let socket I/O breathe
        except StopSimulation as stop:
            finished: Event = stop.args[0]
            if finished._ok:
                return finished._value
            raise finished._value from None
        finally:
            self._running = False
            self._wakeup = None

        if (
            until_event is not None
            and until_event._value is PENDING
            and not self._stop_requested
        ):
            raise RuntimeError(
                f"no scheduled events left but until event {until_event!r} "
                "has not triggered"
            )
        return None

    async def _sleep_wall(self, seconds: Optional[float]) -> None:
        """Sleep wall time, waking early when new work is scheduled."""
        self._wakeup.clear()
        self._parked = True
        try:
            if seconds is None:
                await self._wakeup.wait()
                return
            try:
                await asyncio.wait_for(self._wakeup.wait(), timeout=seconds)
            except asyncio.TimeoutError:
                pass
        finally:
            self._parked = False
