"""Continuous-quantity container (e.g. bytes of GPU memory).

A :class:`Container` holds an amount between 0 and ``capacity``.  ``put``
events succeed once there is room; ``get`` events succeed once there is
enough content.  Waiters are served in arrival order with first-fit
semantics: a blocked large request does not stall later ones that fit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Container", "ContainerPut", "ContainerGet"]


class ContainerPut(Event):
    """Succeeds when ``amount`` has been added to the container."""

    __slots__ = ("amount", "container")

    def __init__(self, container: "Container", amount: float) -> None:
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        self.container = container
        container._put_waiters.append(self)
        container._trigger()

    def cancel(self) -> None:
        """Withdraw a still-pending put."""
        if not self.triggered and self in self.container._put_waiters:
            self.container._put_waiters.remove(self)


class ContainerGet(Event):
    """Succeeds when ``amount`` has been removed from the container."""

    __slots__ = ("amount", "container")

    def __init__(self, container: "Container", amount: float) -> None:
        if amount < 0:
            raise ValueError(f"amount must be non-negative, got {amount}")
        super().__init__(container.env)
        self.amount = amount
        self.container = container
        container._get_waiters.append(self)
        container._trigger()

    def cancel(self) -> None:
        """Withdraw a still-pending get."""
        if not self.triggered and self in self.container._get_waiters:
            self.container._get_waiters.remove(self)


class Container:
    """Continuous stock with bounded capacity."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if init < 0 or init > capacity:
            raise ValueError(f"init {init} out of [0, {capacity}]")
        self.env = env
        self._capacity = capacity
        self._level = init
        self._put_waiters: List[ContainerPut] = []
        self._get_waiters: List[ContainerGet] = []

    def __repr__(self) -> str:
        return f"<Container(level={self._level}/{self._capacity})>"

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        """Current amount stored."""
        return self._level

    @property
    def free(self) -> float:
        """Remaining headroom."""
        return self._capacity - self._level

    def put(self, amount: float) -> ContainerPut:
        """Add ``amount``; event succeeds when it fits."""
        return ContainerPut(self, amount)

    def get(self, amount: float) -> ContainerGet:
        """Remove ``amount``; event succeeds when available."""
        return ContainerGet(self, amount)

    def adjust(self, delta: float) -> None:
        """Add ``delta`` (remove ``-delta`` when negative), for callers
        that never wait on the change.

        When no put (get) is queued and the change fits, the level moves
        at once, by the same float operation :meth:`_trigger` applies,
        and no event is created: the event :meth:`put` (:meth:`get`)
        would schedule has no callbacks.  Otherwise this falls back to
        that event, which is served as usual.  Waiters of the other kind
        are served as after :meth:`put` (:meth:`get`).
        """
        if delta >= 0:
            if self._put_waiters or self._level + delta > self._capacity:
                ContainerPut(self, delta)
                return
            self._level += delta
            others = self._get_waiters
        else:
            amount = -delta
            if self._get_waiters or self._level < amount:
                ContainerGet(self, amount)
                return
            self._level -= amount
            others = self._put_waiters
        if others:
            self._trigger()

    def _trigger(self) -> None:
        """Serve queued puts/gets until stable.

        Waiters are scanned in arrival order but a blocked large request
        does not stall later requests that fit ("first fit" service).
        This matters for the GPU memory pool: a pipeline waiting for a
        large allocation must not deadlock the small reload allocations
        whose completion will eventually free memory.
        """
        progressed = True
        while progressed:
            progressed = False
            idx = 0
            while idx < len(self._put_waiters):
                put = self._put_waiters[idx]
                if self._level + put.amount <= self._capacity:
                    self._put_waiters.pop(idx)
                    self._level += put.amount
                    put.succeed()
                    progressed = True
                else:
                    idx += 1
            idx = 0
            while idx < len(self._get_waiters):
                get = self._get_waiters[idx]
                if self._level >= get.amount:
                    self._get_waiters.pop(idx)
                    self._level -= get.amount
                    get.succeed()
                    progressed = True
                else:
                    idx += 1
