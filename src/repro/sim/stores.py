"""Object stores: FIFO queues of items that processes put into and get from.

These model message queues throughout the serving simulator: the dynamic
batcher's pending queue, broker topics, inter-stage channels.  A
:class:`Store` optionally has bounded capacity (puts block when full).

Implementation notes (hot path):

- ``items`` and the waiter lists are :class:`collections.deque`, so the
  FIFO pop is O(1) instead of the O(n) ``list.pop(0)`` — queue depths
  reach thousands under the paper's high-concurrency sweeps.
- The put/get event classes carry ``__slots__``; they are allocated once
  per message hop and never grow ad-hoc attributes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Store", "StorePut", "StoreGet"]


class StorePut(Event):
    """Succeeds when the item has been accepted by the store."""

    __slots__ = ("item", "store")

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.env)
        self.item = item
        self.store = store
        store._put_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw a still-pending put."""
        if not self.triggered and self in self.store._put_waiters:
            self.store._put_waiters.remove(self)


class StoreGet(Event):
    """Succeeds with the retrieved item."""

    __slots__ = ("store", "requested_at", "_abandoned")

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store
        self.requested_at = store.env.now
        self._abandoned = False
        store._get_waiters.append(self)
        store._trigger()

    def cancel(self) -> None:
        """Withdraw the get; never loses an item.

        A get raced against a timeout (``yield get | env.timeout(...)``)
        can succeed in the very step the timeout fires: the item has
        already been popped from the store and stashed as this event's
        value, but the racing process resumes via the timeout and walks
        away.  Cancelling a get that has already succeeded therefore
        *requeues* its item at the front of the store, so the next getter
        receives it and nothing is silently dropped.  Cancelling a
        still-pending get simply deregisters it.  ``cancel()`` is
        idempotent.
        """
        if not self.triggered:
            try:
                self.store._get_waiters.remove(self)
            except ValueError:
                pass
            return
        if self._ok and not self._abandoned:
            self._abandoned = True
            self.store._return_item(self._value)

    @property
    def wait_time(self) -> float:
        """Time spent waiting for an item (so far, if still pending)."""
        return self.env.now - self.requested_at


class Store:
    """FIFO store of arbitrary items with optional bounded capacity."""

    def __init__(self, env: "Environment", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self._capacity = capacity
        self.items: Deque[Any] = deque()
        self._put_waiters: Deque[StorePut] = deque()
        self._get_waiters: Deque[StoreGet] = deque()
        # Peak occupancy, for memory/backlog diagnostics.
        self._peak = 0

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__}(items={len(self.items)})>"

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def size(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    @property
    def peak_size(self) -> int:
        """Largest number of items ever stored."""
        return self._peak

    @property
    def waiting_getters(self) -> int:
        """Number of get() events currently blocked on an empty store."""
        return len(self._get_waiters)

    @property
    def waiting_putters(self) -> int:
        """Number of put() events currently blocked on a full store."""
        return len(self._put_waiters)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event succeeds once there is room."""
        return StorePut(self, item)

    def get(self) -> StoreGet:
        """Remove and return the next item; blocks (as an event) when empty."""
        return StoreGet(self)

    # -- internals ---------------------------------------------------------

    def _do_put(self, event: StorePut) -> bool:
        items = self.items
        if len(items) < self._capacity:
            items.append(event.item)
            if len(items) > self._peak:
                self._peak = len(items)
            event.succeed()
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            event.succeed(self.items.popleft())
            return True
        return False

    def _return_item(self, item: Any) -> None:
        """Requeue an item abandoned by a cancelled-after-success get.

        The item goes back to the *front* of the store (it was the oldest
        one), even if a racing put has meanwhile filled the store to
        capacity — losing the item would be worse than transiently
        exceeding the bound.  Blocked getters are then re-served.
        """
        self.items.appendleft(item)
        if len(self.items) > self._peak:
            self._peak = len(self.items)
        self._trigger()

    def _serve_getters(self) -> bool:
        """Serve blocked getters in FIFO order; True if any was served."""
        served = False
        get_waiters = self._get_waiters
        while get_waiters and self._do_get(get_waiters[0]):
            get_waiters.popleft()
            served = True
        return served

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            put_waiters = self._put_waiters
            while put_waiters and self._do_put(put_waiters[0]):
                put_waiters.popleft()
                progressed = True
            if self._get_waiters and self._serve_getters():
                progressed = True
