"""Cache subsystem configuration.

A :class:`CacheConfig` hangs off :class:`~repro.core.config.ServerConfig`
(``cache=None`` by default — the server then takes the exact pre-cache
code path, so every paper figure is bit-identical with caching off).
Capacities are byte budgets; a tier with a zero budget is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

__all__ = ["CacheConfig", "POLICY_LRU", "POLICY_LFU", "POLICY_S3FIFO", "POLICIES"]

POLICY_LRU = "lru"
POLICY_LFU = "lfu"
POLICY_S3FIFO = "s3fifo"
POLICIES = (POLICY_LRU, POLICY_LFU, POLICY_S3FIFO)

MIB = float(1024 * 1024)


@dataclass(frozen=True, kw_only=True)
class CacheConfig:
    """Byte budgets, TTLs, and eviction policy for the three cache tiers.

    - **image tier** — decoded images in host RAM; a hit skips JPEG
      decode (CPU path) or the staging/decode kernels (GPU path).
    - **tensor tier** — preprocessed input tensors resident in the
      :class:`~repro.hardware.memory.GpuMemoryPool`; a hit skips the
      whole preprocessing stage *and* the H2D transfer.  Entries compete
      with request working sets for device memory, so high concurrency
      evicts them (pool-pressure evictions are counted separately).
    - **result tier** — inference outputs; a hit skips the DNN entirely
      for exact-duplicate requests.
    """

    enabled: bool = True
    #: Eviction policy for every tier: "lru", "lfu", or "s3fifo".
    policy: str = POLICY_LRU
    #: Host-RAM budget for decoded images (0 disables the tier).
    image_cache_bytes: float = 0.0
    image_ttl_seconds: Optional[float] = None
    #: Per-GPU device-memory budget for preprocessed tensors (0 disables).
    tensor_cache_bytes: float = 0.0
    tensor_ttl_seconds: Optional[float] = None
    #: Budget for inference outputs (0 disables the tier).
    result_cache_bytes: float = 0.0
    result_ttl_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        for field_name in ("image_cache_bytes", "tensor_cache_bytes", "result_cache_bytes"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")
        for field_name in ("image_ttl_seconds", "tensor_ttl_seconds", "result_ttl_seconds"):
            value = getattr(self, field_name)
            if value is not None and value <= 0:
                raise ValueError(f"{field_name} must be positive or None, got {value}")

    @property
    def any_tier_enabled(self) -> bool:
        return self.enabled and (
            self.image_cache_bytes > 0
            or self.tensor_cache_bytes > 0
            or self.result_cache_bytes > 0
        )

    def validate(self) -> "CacheConfig":
        """Re-run field validation (useful after deserialization)."""
        self.__post_init__()
        return self

    def with_overrides(self, **kwargs) -> "CacheConfig":
        """Copy with fields replaced."""
        return replace(self, **kwargs)
