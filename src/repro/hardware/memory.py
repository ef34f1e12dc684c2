"""GPU device-memory pool with eviction support.

Fig. 5's high-concurrency regime hinges on GPU memory: with GPU
preprocessing, every in-flight request parks a preprocessed tensor (plus
decode working set) in device memory while it waits for a batch slot.
When thousands of requests are in flight the pool saturates, queued
tensors are evicted to host memory over PCIe and reloaded before
inference — the paper's explanation for the throughput decline at very
high concurrency (Sec. 4.3).

The pool is a byte-level :class:`~repro.sim.containers.Container` plus an
eviction registry: holders of *evictable* allocations register a handle;
when an allocation cannot be satisfied, the pool evicts the oldest
evictable handles (caller performs the actual d2h transfer and marks the
handle) until the new allocation fits.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from ..kernel import Container, ExecutionBackend

__all__ = ["Allocation", "GpuMemoryPool", "OutOfMemoryError"]


class OutOfMemoryError(Exception):
    """Raised when an allocation exceeds the pool even when empty."""


class Allocation:
    """A live allocation in the pool."""

    __slots__ = (
        "pool", "nbytes", "evictable", "evicted", "released", "on_evict", "created_at", "tag",
    )

    def __init__(
        self,
        pool: "GpuMemoryPool",
        nbytes: float,
        evictable: bool,
        on_evict: Optional[Callable[["Allocation"], None]],
        tag: str = "request",
    ) -> None:
        self.pool = pool
        self.nbytes = nbytes
        self.evictable = evictable
        self.evicted = False
        self.released = False
        self.on_evict = on_evict
        self.created_at = pool.env.now
        #: Who owns the bytes ("request" working sets vs "cache" tensors);
        #: eviction sweeps account per tag so cache-vs-request memory
        #: contention is observable.
        self.tag = tag

    def __repr__(self) -> str:
        state = "evicted" if self.evicted else ("released" if self.released else "resident")
        return f"<Allocation {self.nbytes:.0f} B ({state})>"


class GpuMemoryPool:
    """Byte-accounting device-memory pool with oldest-first eviction."""

    def __init__(
        self,
        env: ExecutionBackend,
        capacity_bytes: float,
        name: str = "gpumem",
        evict_policy: str = "newest",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if evict_policy not in ("oldest", "newest"):
            raise ValueError(f"evict_policy must be 'oldest' or 'newest', got {evict_policy!r}")
        self.env = env
        self.name = name
        self.evict_policy = evict_policy
        self.capacity_bytes = capacity_bytes
        # Container level == free bytes.
        self._free = Container(env, capacity=capacity_bytes, init=capacity_bytes)
        self._evictable: List[Allocation] = []
        self.eviction_count = 0
        self.evicted_bytes = 0.0
        self.peak_used = 0.0
        #: Per-tag eviction accounting (e.g. "request" vs "cache").
        self.evictions_by_tag: Dict[str, int] = {}
        self.evicted_bytes_by_tag: Dict[str, float] = {}

    def __repr__(self) -> str:
        return f"<GpuMemoryPool {self.name} used={self.used_bytes:.2e}/{self.capacity_bytes:.2e}>"

    @property
    def free_bytes(self) -> float:
        return self._free.level

    @property
    def used_bytes(self) -> float:
        return self.capacity_bytes - self._free.level

    def alloc(
        self,
        nbytes: float,
        evictable: bool = False,
        on_evict: Optional[Callable[[Allocation], None]] = None,
        tag: str = "request",
    ) -> Generator:
        """Process generator: allocate ``nbytes``; returns an Allocation.

        If the pool is full, evicts the oldest evictable allocations
        (invoking their ``on_evict`` callbacks, which typically schedule a
        d2h write-back) and then waits until the bytes are free.

        Usage: ``allocation = yield from pool.alloc(n, evictable=True)``.
        """
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        if nbytes > self.capacity_bytes:
            raise OutOfMemoryError(
                f"allocation of {nbytes:.2e} B exceeds pool capacity "
                f"{self.capacity_bytes:.2e} B"
            )

        # Evict until the request fits or nothing is left to evict; the
        # freed bytes arrive when the evictors release their allocations.
        if self.free_bytes < nbytes:
            self._evict_for(nbytes)

        yield self._free.get(nbytes)
        allocation = Allocation(self, nbytes, evictable, on_evict, tag=tag)
        if evictable:
            self._evictable.append(allocation)
        self.peak_used = max(self.peak_used, self.used_bytes)
        return allocation

    def try_alloc(
        self,
        nbytes: float,
        evictable: bool = False,
        on_evict: Optional[Callable[[Allocation], None]] = None,
        tag: str = "request",
    ) -> Optional[Allocation]:
        """Non-blocking allocate: returns None if it does not fit right now."""
        if nbytes < 0:
            raise ValueError(f"negative allocation {nbytes}")
        if self.free_bytes < nbytes:
            return None
        self._free.adjust(-nbytes)  # fits: taken at once
        allocation = Allocation(self, nbytes, evictable, on_evict, tag=tag)
        if evictable:
            self._evictable.append(allocation)
        self.peak_used = max(self.peak_used, self.used_bytes)
        return allocation

    def free(self, allocation: Allocation) -> None:
        """Release an allocation (idempotent)."""
        if allocation.released:
            return
        allocation.released = True
        if allocation in self._evictable:
            self._evictable.remove(allocation)
        self._free.adjust(allocation.nbytes)

    def pin(self, allocation: Allocation) -> None:
        """Make an evictable allocation non-evictable (about to be used)."""
        if allocation in self._evictable:
            self._evictable.remove(allocation)
        allocation.evictable = False

    def _evict_for(self, nbytes: float) -> None:
        """Kick out evictable allocations until ``nbytes`` would fit.

        ``newest`` policy (default) spills the most recently produced
        tensors: the ones furthest from their inference slot, which
        minimizes reloads on the critical path.  ``oldest`` is the naive
        FIFO spill, kept as an ablation (paper design-choice study).
        """
        needed = nbytes - self.free_bytes
        reclaimed = 0.0
        while reclaimed < needed and self._evictable:
            index = -1 if self.evict_policy == "newest" else 0
            victim = self._evictable.pop(index)
            victim.evicted = True
            self.eviction_count += 1
            self.evicted_bytes += victim.nbytes
            self.evictions_by_tag[victim.tag] = self.evictions_by_tag.get(victim.tag, 0) + 1
            self.evicted_bytes_by_tag[victim.tag] = (
                self.evicted_bytes_by_tag.get(victim.tag, 0.0) + victim.nbytes
            )
            reclaimed += victim.nbytes
            callback = victim.on_evict
            if callback is not None:
                callback(victim)
            # The victim's owner is responsible for freeing; do it here so
            # the bytes become available even if the owner is mid-transfer
            # (real stacks release pages once the write-back is enqueued).
            self.free(victim)
