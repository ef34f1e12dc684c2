"""Server configuration: the knobs the paper tunes in Sec. 2.3.

"Serving software provides many adjustable settings, including the
maximum queuing latency, and maximum batch size.  Additionally multiple
*instances* of the processing units can each handle requests
independently" — all of those are fields here, plus the preprocessing
device choice the paper sweeps throughout Sec. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..cache.config import CacheConfig

__all__ = ["ServerConfig", "CPU_PREPROCESS", "GPU_PREPROCESS", "MODE_END_TO_END",
           "MODE_PREPROCESS_ONLY", "MODE_INFERENCE_ONLY"]

CPU_PREPROCESS = "cpu"
GPU_PREPROCESS = "gpu"

MODE_END_TO_END = "end_to_end"
MODE_PREPROCESS_ONLY = "preprocess_only"
MODE_INFERENCE_ONLY = "inference_only"

_MODES = (MODE_END_TO_END, MODE_PREPROCESS_ONLY, MODE_INFERENCE_ONLY)


@dataclass(frozen=True, kw_only=True)
class ServerConfig:
    """Tunable serving parameters for one model deployment."""

    model: str = "vit-base-16"
    runtime: str = "tensorrt"
    #: "cpu" (python-backend workers) or "gpu" (DALI-style pipelines).
    preprocess_device: str = GPU_PREPROCESS
    #: CPU preprocessing worker processes (python backend instances).
    preprocess_workers: int = 16
    #: Inference model instances *per GPU* (CUDA streams).
    inference_instances: int = 2
    #: Dynamic batcher: largest batch the engine accepts.
    max_batch_size: int = 64
    #: Dynamic batcher: max time the oldest request may wait for a batch.
    #: ``None`` disables dynamic batching (always wait for a full batch).
    max_queue_delay_seconds: Optional[float] = 1.0e-3
    #: GPU preprocessing batch size (DALI pipeline batch).
    preprocess_batch_size: int = 16
    #: Max wait to fill a preprocessing batch.
    preprocess_queue_delay_seconds: float = 0.5e-3
    #: DALI pipeline instances per GPU; two overlap host staging with
    #: GPU decode kernels the way DALI's prefetch queue does.
    preprocess_pipelines: int = 2
    #: What the server actually executes (stage isolation for Fig. 7).
    mode: str = MODE_END_TO_END
    #: Evict queued tensors to host when GPU memory fills (Fig. 5).
    allow_eviction: bool = True
    #: Content-aware caching (:mod:`repro.cache`).  ``None`` (default)
    #: disables the subsystem entirely — the server takes the exact
    #: pre-cache code path, bit-identical to uncached builds.
    cache: Optional[CacheConfig] = None

    def __post_init__(self) -> None:
        if self.preprocess_device not in (CPU_PREPROCESS, GPU_PREPROCESS):
            raise ValueError(
                f"preprocess_device must be 'cpu' or 'gpu', got {self.preprocess_device!r}"
            )
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.preprocess_workers < 1:
            raise ValueError("preprocess_workers must be >= 1")
        if self.inference_instances < 1:
            raise ValueError("inference_instances must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.preprocess_batch_size < 1:
            raise ValueError("preprocess_batch_size must be >= 1")
        if self.preprocess_pipelines < 1:
            raise ValueError("preprocess_pipelines must be >= 1")
        if self.max_queue_delay_seconds is not None and self.max_queue_delay_seconds < 0:
            raise ValueError("max_queue_delay_seconds must be >= 0 or None")
        if self.preprocess_queue_delay_seconds < 0:
            raise ValueError("preprocess_queue_delay_seconds must be >= 0")
        if self.cache is not None:
            self.cache.validate()

    @property
    def dynamic_batching(self) -> bool:
        return self.max_queue_delay_seconds is not None

    def validate(self) -> "ServerConfig":
        """Re-run field validation (useful after deserialization)."""
        self.__post_init__()
        return self

    def with_overrides(self, **kwargs) -> "ServerConfig":
        """Copy with fields replaced (tuner convenience)."""
        return replace(self, **kwargs)
