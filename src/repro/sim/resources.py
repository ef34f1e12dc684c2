"""Shared resources with limited capacity (SimPy-style request/release).

A :class:`Resource` models a pool of identical slots (e.g. CPU cores held by
preprocessing workers, GPU compute occupancy).  Processes ``yield`` a
:meth:`Resource.request` event, which succeeds when a slot is granted, and
must eventually :meth:`Resource.release` it.  ``with`` semantics are
supported::

    with resource.request() as req:
        yield req
        ... use the resource ...

:class:`PriorityResource` grants queued requests in (priority, FIFO) order.
"""

from __future__ import annotations

import itertools
from bisect import insort
from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING, List, Optional

from .events import PENDING, Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Request", "Resource", "PriorityResource"]


class Request(Event):
    """Event that succeeds when the resource grants a slot to the requester."""

    __slots__ = ("resource", "usage_since", "requested_at")

    def __init__(self, resource: "Resource") -> None:
        # Event.__init__'s fields, assigned in place: every resource
        # request in the simulator runs this.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.usage_since: Optional[float] = None
        #: Time the request was issued; used for queue-time accounting.
        self.requested_at: float = env.now
        resource._do_request(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Release the slot, or cancel the request if still queued.

        Resource.release is a no-op once the request is gone.  A
        ``GeneratorExit`` releases nothing, and the slot stays held on
        purpose: the kernel never interrupts a process, so its generator
        is closed only when the garbage collector finalizes a process
        that nothing can resume any more, typically after its run ended.
        Releasing then would grant the next queued request at a moment
        the collector picks, and schedule it on an environment that may
        already be discarded.
        """
        if exc_type is GeneratorExit:
            return
        self.resource.release(self)

    @property
    def wait_time(self) -> float:
        """Time spent queued before the slot was granted (so far, if pending)."""
        granted_at = self.usage_since if self.usage_since is not None else self.env.now
        return granted_at - self.requested_at


class PriorityRequest(Request):
    """Request with a priority; lower values are granted first."""

    __slots__ = ("priority", "order")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        self.priority = priority
        #: Tie-break counter assigned by the resource for FIFO within priority.
        self.order: int = 0
        super().__init__(resource)


#: Sort key of a queued :class:`PriorityRequest`: priority, then FIFO.
_priority_order = attrgetter("priority", "order")


class Resource:
    """A pool of ``capacity`` identical slots granted FIFO."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        # FIFO grant queue: deque for the O(1) pop in _next_request
        # (PriorityResource swaps in a sorted list).
        self.queue = self._new_queue()
        self.users: List[Request] = []
        # Utilization accounting: busy slot-seconds integrated over time.
        self._busy_time = 0.0
        self._last_change = env.now

    def __repr__(self) -> str:
        return (
            f"<{self.__class__.__name__}(capacity={self._capacity}, "
            f"users={len(self.users)}, queued={len(self.queue)})>"
        )

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self.users)

    def request(self) -> Request:
        """Request a slot; the returned event succeeds when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Release a granted slot or cancel a queued request.

        A freed slot goes to the next queued request at once, whose
        :class:`Request` event is scheduled; the release itself schedules
        nothing, as nobody can wait on it.  Safe to call more than once
        for the same request (subsequent calls are no-ops), which makes
        ``with`` blocks robust.
        """
        users = self.users
        if request in users:
            # _account(), inlined: count the slot as busy up to now.
            now = self.env.now
            self._busy_time += len(users) * (now - self._last_change)
            self._last_change = now
            users.remove(request)
            queue = self.queue
            while queue and len(users) < self._capacity:
                self._grant(self._next_request())
        elif request in self.queue:
            # Cancelled while still waiting.
            self.queue.remove(request)

    # -- accounting --------------------------------------------------------

    def _account(self) -> float:
        """Integrate busy slot-seconds up to now; returns now."""
        now = self.env.now
        self._busy_time += len(self.users) * (now - self._last_change)
        self._last_change = now
        return now

    def busy_time(self) -> float:
        """Total busy slot-seconds accumulated up to the current time."""
        self._account()
        return self._busy_time

    def utilization(self, elapsed: Optional[float] = None) -> float:
        """Average fraction of capacity in use.

        ``elapsed`` defaults to the current simulation time (i.e. measured
        from t=0).
        """
        if elapsed is None:
            elapsed = self.env.now
        if elapsed <= 0:
            return 0.0
        return self.busy_time() / (self._capacity * elapsed)

    # -- internal grant machinery -------------------------------------------

    def _do_request(self, request: Request) -> None:
        if len(self.users) < self._capacity:
            self._grant(request)
        else:
            self._enqueue(request)

    def _enqueue(self, request: Request) -> None:
        self.queue.append(request)

    def _grant(self, request: Request) -> None:
        # _account() and request.succeed(), inlined: a request being
        # granted is always pending and ok, so only its value changes.
        now = self.env.now
        users = self.users
        self._busy_time += len(users) * (now - self._last_change)
        self._last_change = now
        request.usage_since = now
        users.append(request)
        request._value = None
        self.env.schedule(request)

    def _new_queue(self):
        return deque()

    def _next_request(self) -> Request:
        return self.queue.popleft()


class PriorityResource(Resource):
    """Resource whose queue is served in (priority, FIFO) order."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        super().__init__(env, capacity)
        self._order = itertools.count()

    def _new_queue(self):
        # A list kept sorted by (priority, order) by _enqueue.
        return []

    def _next_request(self) -> Request:
        return self.queue.pop(0)

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _do_request(self, request: Request) -> None:
        assert isinstance(request, PriorityRequest)
        request.order = next(self._order)
        super()._do_request(request)

    def _enqueue(self, request: Request) -> None:
        insort(self.queue, request, key=_priority_order)
