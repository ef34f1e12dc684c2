"""Content-addressed cache tiers and the per-server hierarchy.

Tiers are byte-budgeted key/value maps with TTL expiry and a pluggable
:mod:`eviction policy <repro.cache.policies>`.  Values are descriptors
(the simulator never touches pixels): the image tier stores decoded-size
bookkeeping, the tensor tier stores live
:class:`~repro.hardware.memory.Allocation` handles inside the GPU memory
pool — so cached tensors genuinely compete with request working sets for
device memory and get pushed out under concurrency pressure — and the
result tier stores response sizes.

Every tier keeps a :class:`CacheStats` ledger (hits, misses, TTL
expirations, admissions, rejections, policy evictions, pool-pressure
evictions, bytes) that flows into ``RunMetrics.extras`` and the CSV/JSON
exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.sums import float_sum
from .config import CacheConfig
from .policies import EvictionPolicy, make_policy

__all__ = ["CacheStats", "CacheEntry", "CacheTier", "GpuTensorCache", "CacheHierarchy"]


@dataclass
class CacheStats:
    """Counters for one tier (whole run, including warm-up)."""

    hits: int = 0
    misses: int = 0
    expirations: int = 0
    admissions: int = 0
    #: Admissions refused (entry larger than the budget, or — tensor
    #: tier — the GPU pool had no free bytes to lend).
    rejections: int = 0
    #: Evictions decided by the tier's own policy (budget pressure).
    evictions: int = 0
    evicted_bytes: float = 0.0
    #: Tensor tier only: entries pushed out of the GPU *pool* by request
    #: working sets (the paper's memory-capacity contention).
    pressure_evictions: int = 0
    pressure_evicted_bytes: float = 0.0
    #: Bytes served from cache (sum of hit entry sizes).
    hit_bytes: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self, prefix: str) -> Dict[str, float]:
        """Flat export with ``prefix`` (e.g. ``cache_image_``)."""
        return {
            f"{prefix}hits": float(self.hits),
            f"{prefix}misses": float(self.misses),
            f"{prefix}hit_rate": self.hit_rate,
            f"{prefix}expirations": float(self.expirations),
            f"{prefix}admissions": float(self.admissions),
            f"{prefix}rejections": float(self.rejections),
            f"{prefix}evictions": float(self.evictions),
            f"{prefix}evicted_bytes": self.evicted_bytes,
            f"{prefix}pressure_evictions": float(self.pressure_evictions),
            f"{prefix}pressure_evicted_bytes": self.pressure_evicted_bytes,
        }

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum (aggregating per-GPU tensor tiers)."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            expirations=self.expirations + other.expirations,
            admissions=self.admissions + other.admissions,
            rejections=self.rejections + other.rejections,
            evictions=self.evictions + other.evictions,
            evicted_bytes=self.evicted_bytes + other.evicted_bytes,
            pressure_evictions=self.pressure_evictions + other.pressure_evictions,
            pressure_evicted_bytes=self.pressure_evicted_bytes + other.pressure_evicted_bytes,
            hit_bytes=self.hit_bytes + other.hit_bytes,
        )


class CacheEntry:
    """One cached object (descriptor + optional payload handle)."""

    __slots__ = ("key", "nbytes", "inserted_at", "expires_at", "payload", "resident")

    def __init__(
        self,
        key: str,
        nbytes: float,
        inserted_at: float,
        expires_at: Optional[float],
        payload: object = None,
    ) -> None:
        self.key = key
        self.nbytes = nbytes
        self.inserted_at = inserted_at
        self.expires_at = expires_at
        self.payload = payload
        #: False once the backing storage is gone (pool eviction); a
        #: holder that looked the entry up earlier must re-check this.
        self.resident = True

    def __repr__(self) -> str:
        state = "resident" if self.resident else "gone"
        return f"<CacheEntry {self.key!r} {self.nbytes:.0f} B ({state})>"


class CacheTier:
    """One byte-budgeted, TTL-aware, policy-managed cache tier."""

    def __init__(
        self,
        env,
        name: str,
        capacity_bytes: float,
        policy: str = "lru",
        ttl_seconds: Optional[float] = None,
        on_evict_entry: Optional[Callable[[CacheEntry], None]] = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive or None, got {ttl_seconds}")
        self.env = env
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.ttl_seconds = ttl_seconds
        self.policy: EvictionPolicy = make_policy(policy)
        self.on_evict_entry = on_evict_entry
        self.stats = CacheStats()
        self._entries: Dict[str, CacheEntry] = {}
        self.used_bytes = 0.0
        self.peak_bytes = 0.0

    def __repr__(self) -> str:
        return (
            f"<CacheTier {self.name} {self.policy.name} "
            f"{self.used_bytes:.0f}/{self.capacity_bytes:.0f} B, {len(self._entries)} entries>"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def lookup(self, key: str) -> Optional[CacheEntry]:
        """Hit/miss-counted lookup; expired entries count as misses."""
        entry = self._entries.get(key)
        if entry is not None and entry.expires_at is not None and self.env.now >= entry.expires_at:
            self._remove(entry)
            self.stats.expirations += 1
            entry = None
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.hit_bytes += entry.nbytes
        self.policy.touch(key)
        return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Lookup without touching counters or recency (tests/diagnostics)."""
        return self._entries.get(key)

    def admit(self, key: str, nbytes: float, payload: object = None) -> Optional[CacheEntry]:
        """Insert ``key``; evicts per policy until it fits the budget.

        Returns the live entry, or ``None`` when the object is larger
        than the whole budget (admission rejected).  Re-admitting a
        present key refreshes nothing and returns the existing entry.
        """
        if nbytes < 0:
            raise ValueError(f"negative entry size {nbytes}")
        existing = self._entries.get(key)
        if existing is not None:
            return existing
        if nbytes > self.capacity_bytes:
            self.stats.rejections += 1
            return None
        while self.used_bytes + nbytes > self.capacity_bytes:
            victim_key = self.policy.victim()
            if victim_key is None:
                break
            victim = self._entries.pop(victim_key)
            self.used_bytes -= victim.nbytes
            self.stats.evictions += 1
            self.stats.evicted_bytes += victim.nbytes
            victim.resident = False
            if self.on_evict_entry is not None:
                self.on_evict_entry(victim)
        entry = CacheEntry(
            key,
            nbytes,
            inserted_at=self.env.now,
            expires_at=(self.env.now + self.ttl_seconds) if self.ttl_seconds else None,
            payload=payload,
        )
        self._entries[key] = entry
        self.policy.admit(key)
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self.stats.admissions += 1
        return entry

    def invalidate(self, key: str, pressure: bool = False) -> None:
        """Drop ``key`` if present.

        ``pressure=True`` attributes the removal to external memory
        pressure (GPU pool eviction) rather than the tier's own policy.
        """
        entry = self._entries.get(key)
        if entry is None:
            return
        self._remove(entry)
        if pressure:
            self.stats.pressure_evictions += 1
            self.stats.pressure_evicted_bytes += entry.nbytes

    def _remove(self, entry: CacheEntry) -> None:
        del self._entries[entry.key]
        self.policy.discard(entry.key)
        self.used_bytes -= entry.nbytes
        entry.resident = False
        if self.on_evict_entry is not None:
            self.on_evict_entry(entry)


class GpuTensorCache:
    """Preprocessed-tensor tier resident in one GPU's memory pool.

    Each entry's payload is a live pool :class:`Allocation` tagged
    ``"cache"``, registered evictable: when request working sets fill
    the pool, the pool's eviction sweep reclaims cache entries and this
    tier invalidates them (counted as pressure evictions).  A holder of
    a looked-up entry must re-check ``entry.resident`` at use time.
    """

    def __init__(
        self,
        env,
        gpu,
        capacity_bytes: float,
        policy: str = "lru",
        ttl_seconds: Optional[float] = None,
    ) -> None:
        self.gpu = gpu
        self.pool = gpu.memory
        self.tier = CacheTier(
            env,
            name=f"{gpu.name}.tensor-cache",
            capacity_bytes=capacity_bytes,
            policy=policy,
            ttl_seconds=ttl_seconds,
            on_evict_entry=self._release_allocation,
        )

    @property
    def stats(self) -> CacheStats:
        return self.tier.stats

    def __len__(self) -> int:
        return len(self.tier)

    def lookup(self, key: str) -> Optional[CacheEntry]:
        return self.tier.lookup(key)

    def admit(self, key: str, nbytes: float) -> Optional[CacheEntry]:
        """Admit a tensor if the pool has free bytes *right now*.

        The cache never blocks a request on its own allocation: if the
        pool cannot satisfy it immediately the admission is dropped
        (counted as a rejection) — exactly what a real serving cache
        does when device memory is contended.
        """
        if key in self.tier:
            return self.tier.peek(key)
        allocation = self.pool.try_alloc(
            nbytes,
            evictable=True,
            on_evict=lambda alloc, k=key: self._on_pool_evict(k),
            tag="cache",
        )
        if allocation is None:
            self.tier.stats.rejections += 1
            return None
        entry = self.tier.admit(key, nbytes, payload=allocation)
        if entry is None:
            self.pool.free(allocation)
        return entry

    def _on_pool_evict(self, key: str) -> None:
        # The pool frees the allocation itself after this callback; the
        # tier just has to forget the entry and attribute the eviction.
        self.tier.invalidate(key, pressure=True)

    def _release_allocation(self, entry: CacheEntry) -> None:
        if entry.payload is not None:
            self.pool.free(entry.payload)  # idempotent


class CacheHierarchy:
    """All cache tiers of one server deployment.

    Tier methods are safe to call unconditionally: a disabled tier (zero
    budget) or an empty content id short-circuits to a miss/no-op
    without touching any counters.
    """

    def __init__(self, env, config: CacheConfig, gpus) -> None:
        config.validate()
        self.config = config
        self.image: Optional[CacheTier] = None
        self.result: Optional[CacheTier] = None
        self.tensor: List[GpuTensorCache] = []
        if config.image_cache_bytes > 0:
            self.image = CacheTier(
                env,
                name="image-cache",
                capacity_bytes=config.image_cache_bytes,
                policy=config.policy,
                ttl_seconds=config.image_ttl_seconds,
            )
        if config.tensor_cache_bytes > 0:
            self.tensor = [
                GpuTensorCache(
                    env,
                    gpu,
                    capacity_bytes=config.tensor_cache_bytes,
                    policy=config.policy,
                    ttl_seconds=config.tensor_ttl_seconds,
                )
                for gpu in gpus
            ]
        if config.result_cache_bytes > 0:
            self.result = CacheTier(
                env,
                name="result-cache",
                capacity_bytes=config.result_cache_bytes,
                policy=config.policy,
                ttl_seconds=config.result_ttl_seconds,
            )

    # -- lookups/admissions (no-ops without a content id or tier) ------------

    def lookup_image(self, content_id: str) -> Optional[CacheEntry]:
        if self.image is None or not content_id:
            return None
        return self.image.lookup(content_id)

    def admit_image(self, content_id: str, nbytes: float) -> Optional[CacheEntry]:
        if self.image is None or not content_id:
            return None
        return self.image.admit(content_id, nbytes)

    def lookup_tensor(self, gpu_index: int, key: str) -> Optional[CacheEntry]:
        if not self.tensor or not key:
            return None
        return self.tensor[gpu_index].lookup(key)

    def admit_tensor(self, gpu_index: int, key: str, nbytes: float) -> Optional[CacheEntry]:
        if not self.tensor or not key:
            return None
        return self.tensor[gpu_index].admit(key, nbytes)

    def lookup_result(self, key: str) -> Optional[CacheEntry]:
        if self.result is None or not key:
            return None
        return self.result.lookup(key)

    def admit_result(self, key: str, nbytes: float) -> Optional[CacheEntry]:
        if self.result is None or not key:
            return None
        return self.result.admit(key, nbytes)

    # -- reporting -----------------------------------------------------------

    def stats_dict(self) -> Dict[str, float]:
        """Flat counters for ``RunMetrics.extras`` / exports."""
        out: Dict[str, float] = {}
        if self.image is not None:
            out.update(self.image.stats.as_dict("cache_image_"))
        if self.tensor:
            merged = CacheStats()
            for cache in self.tensor:
                merged = merged.merge(cache.stats)
            out.update(merged.as_dict("cache_tensor_"))
            out["cache_tensor_resident_bytes"] = float(
                float_sum(cache.tier.used_bytes for cache in self.tensor)
            )
        if self.result is not None:
            out.update(self.result.stats.as_dict("cache_result_"))
        return out

    def register_metrics(self, registry) -> None:
        """Publish per-tier counters as registry views."""

        def tier_stats(tier_name: str):
            if tier_name == "image":
                return self.image.stats
            if tier_name == "result":
                return self.result.stats
            merged = CacheStats()
            for cache in self.tensor:
                merged = merged.merge(cache.stats)
            return merged

        tiers = []
        if self.image is not None:
            tiers.append(("image", lambda: self.image.used_bytes))
        if self.tensor:
            tiers.append(
                ("tensor", lambda: float_sum(c.tier.used_bytes for c in self.tensor))
            )
        if self.result is not None:
            tiers.append(("result", lambda: self.result.used_bytes))
        for tier_name, used_fn in tiers:
            registry.counter_fn(
                "repro_cache_hits_total",
                "Cache lookups served by the tier",
                lambda t=tier_name: tier_stats(t).hits,
                tier=tier_name,
            )
            registry.counter_fn(
                "repro_cache_misses_total",
                "Cache lookups the tier could not serve",
                lambda t=tier_name: tier_stats(t).misses,
                tier=tier_name,
            )
            registry.counter_fn(
                "repro_cache_evictions_total",
                "Entries evicted from the tier",
                lambda t=tier_name: tier_stats(t).evictions,
                tier=tier_name,
            )
            registry.gauge_fn(
                "repro_cache_used_bytes",
                "Bytes currently resident in the tier",
                used_fn,
                tier=tier_name,
            )
