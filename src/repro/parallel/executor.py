"""Process-pool sweep executor.

The paper's figures are built from sweeps — model zoo x image size x
concurrency x hardware config — replayed as dozens of *independent*
simulations.  Each point owns its own :class:`~repro.sim.Environment`
and :class:`~repro.sim.RandomStreams`, so points can run on separate
CPU cores with no shared state.  :func:`run_sweep` fans a list of
points across a process pool and aggregates results **in submission
order**, with a hard guarantee: the values produced by parallel
execution are bit-identical to serial execution, because every point is
a pure function of its (picklable) spec.

Design rules that keep the guarantee cheap to uphold:

- A *task* is a **module-level function** ``task(point) -> value`` (so it
  pickles by reference) and the *point* is a picklable spec — typically
  a frozen config dataclass; results cross back as the plain dicts of
  the existing ``.to_dict()`` API.
- Seeds for generated sweeps come from :func:`derive_seed`, which hashes
  ``(base_seed, key)``; the derivation is position-independent, so
  reordering or slicing a sweep never changes any point's result.
- Workers start from a ``spawn`` context: a fresh interpreter that
  imports only what the task needs, which keeps heavyweight optional
  dependencies (matplotlib & co) out of the workers and makes the
  execution environment identical no matter which process a point
  lands on.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.sums import float_sum

__all__ = [
    "HEAVY_MODULES",
    "ParallelConfig",
    "PointResult",
    "SweepError",
    "SweepReport",
    "derive_seed",
    "run_sweep",
]

#: Optional dependencies that must never be imported inside a pool
#: worker: they are slow to import, allocate aggressively, and nothing
#: in the simulation hot path needs them.  Enforced per-point by
#: :func:`_pool_point` and by the import-hygiene tests.
HEAVY_MODULES = ("matplotlib", "pandas", "PIL", "IPython", "notebook")


def derive_seed(base_seed: int, key: Any) -> int:
    """Deterministic per-point seed from ``(base_seed, key)``.

    Uses SHA-256 (like :class:`~repro.sim.rng.RandomStreams`), not
    Python's randomized ``hash()``, so the derivation is stable across
    interpreter launches and identical in every worker process.  ``key``
    is typically the point's index or a descriptive string.
    """
    digest = hashlib.sha256(f"{int(base_seed)}:point:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SweepError(RuntimeError):
    """A sweep point failed; carries the failing index and point spec."""

    def __init__(self, index: int, point: Any, cause: BaseException) -> None:
        super().__init__(f"sweep point {index} ({point!r}) failed: {cause!r}")
        self.index = index
        self.point = point


@dataclass(frozen=True, kw_only=True)
class ParallelConfig:
    """Execution knobs for :func:`run_sweep`."""

    #: Pool size; ``None`` uses every available core.
    workers: Optional[int] = None
    #: Force in-process serial execution (no pool at all).
    serial: bool = False
    #: Re-run the sweep serially afterwards and assert the values are
    #: identical (the bit-identity guarantee, paid for twice the work).
    verify: bool = False

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def resolved_workers(self, point_count: int) -> int:
        """Actual pool size for a sweep of ``point_count`` points."""
        workers = self.workers if self.workers is not None else (os.cpu_count() or 1)
        return max(1, min(workers, point_count))


@dataclass(frozen=True)
class PointResult:
    """One executed sweep point: its value plus execution accounting."""

    index: int
    value: Any
    #: In-worker wall-clock of the task body (seconds).
    seconds: float
    #: PID of the process that ran the point.
    pid: int


@dataclass(frozen=True)
class SweepReport:
    """Ordered results of a sweep plus a progress/timing report."""

    results: Tuple[PointResult, ...]
    #: Parent-side wall-clock of the whole sweep (seconds).
    wall_seconds: float
    #: Pool size used ("1" for serial execution).
    workers: int
    #: ``"serial"`` or ``"parallel"``.
    mode: str
    #: True when a verify pass re-ran the sweep serially and matched.
    verified: bool = False

    @property
    def values(self) -> List[Any]:
        """Task return values in submission order."""
        return [r.value for r in self.results]

    @property
    def busy_seconds(self) -> float:
        """Total in-worker compute time across all points."""
        return float_sum(r.seconds for r in self.results)

    @property
    def parallel_efficiency(self) -> float:
        """busy / (wall * workers); 1.0 means a perfectly packed pool."""
        denom = self.wall_seconds * self.workers
        return self.busy_seconds / denom if denom > 0 else 0.0

    def summary(self) -> str:
        """One-line human-readable report."""
        return (
            f"{len(self.results)} points in {self.wall_seconds:.2f}s "
            f"({self.mode}, {self.workers} worker(s), "
            f"busy {self.busy_seconds:.2f}s, "
            f"efficiency {self.parallel_efficiency:.0%})"
        )

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-safe accounting (not the per-point values)."""
        return {
            "points": len(self.results),
            "wall_seconds": self.wall_seconds,
            "busy_seconds": self.busy_seconds,
            "workers": self.workers,
            "mode": self.mode,
            "parallel_efficiency": self.parallel_efficiency,
            "verified": self.verified,
            "point_seconds": [r.seconds for r in self.results],
        }


def _run_point(task: Callable[[Any], Any], index: int, point: Any) -> PointResult:
    start = time.perf_counter()
    value = task(point)
    return PointResult(
        index=index,
        value=value,
        seconds=time.perf_counter() - start,
        pid=os.getpid(),
    )


def _check_import_hygiene() -> None:
    loaded = [name for name in HEAVY_MODULES if name in sys.modules]
    if loaded:
        raise ImportError(
            f"sweep worker imported heavyweight optional deps {loaded}; "
            "tasks given to repro.parallel must stay lean "
            "(plotting/analysis belongs in the parent process)"
        )


def _pool_point(task: Callable[[Any], Any], index: int, point: Any) -> PointResult:
    """Worker-side entry: run the point, then enforce import hygiene."""
    result = _run_point(task, index, point)
    _check_import_hygiene()
    return result


def _run_serial(
    task: Callable[[Any], Any],
    points: Sequence[Any],
    on_progress: Optional[Callable[[PointResult, int], None]],
) -> List[PointResult]:
    results: List[PointResult] = []
    for index, point in enumerate(points):
        try:
            result = _run_point(task, index, point)
        except Exception as exc:
            raise SweepError(index, point, exc) from exc
        results.append(result)
        if on_progress is not None:
            on_progress(result, len(points))
    return results


def _run_pool(
    task: Callable[[Any], Any],
    points: Sequence[Any],
    workers: int,
    on_progress: Optional[Callable[[PointResult, int], None]],
) -> List[PointResult]:
    total = len(points)
    ordered: List[Optional[PointResult]] = [None] * total
    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn")) as pool:
        pending = {
            pool.submit(_pool_point, task, index, point): index
            for index, point in enumerate(points)
        }
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index = pending.pop(future)
                error = future.exception()
                if error is not None:
                    for other in pending:
                        other.cancel()
                    raise SweepError(index, points[index], error) from error
                result = future.result()
                ordered[result.index] = result
                if on_progress is not None:
                    on_progress(result, total)
    return [r for r in ordered if r is not None]


def run_sweep(
    task: Callable[[Any], Any],
    points: Sequence[Any],
    config: Optional[ParallelConfig] = None,
    *,
    on_progress: Optional[Callable[[PointResult, int], None]] = None,
) -> SweepReport:
    """Execute ``task`` over every point, fanning across CPU cores.

    ``task`` must be a module-level callable and each point must be
    picklable.  Results come back **in submission order** regardless of
    completion order.  ``on_progress`` (if given) is invoked in the
    parent as each point finishes with ``(point_result, total_points)``.

    Serial and parallel execution are interchangeable: both run the
    same pure function on the same spec, so the returned values are
    bit-identical (``config.verify=True`` re-checks this at runtime).
    A failing point raises :class:`SweepError` naming the point.
    """
    if config is None:
        config = ParallelConfig()
    points = list(points)
    start = time.perf_counter()
    if not points:
        return SweepReport(results=(), wall_seconds=0.0, workers=0, mode="serial")

    workers = config.resolved_workers(len(points))
    serial = config.serial or workers == 1 or len(points) == 1
    if serial:
        results = _run_serial(task, points, on_progress)
        mode, used = "serial", 1
    else:
        results = _run_pool(task, points, workers, on_progress)
        mode, used = "parallel", workers
    wall = time.perf_counter() - start

    verified = False
    if config.verify and not serial:
        check = _run_serial(task, points, None)
        for got, expect in zip(results, check):
            if got.value != expect.value:
                raise AssertionError(
                    f"parallel/serial mismatch at point {got.index}: "
                    f"{got.value!r} != {expect.value!r}"
                )
        verified = True

    return SweepReport(
        results=tuple(results),
        wall_seconds=wall,
        workers=used,
        mode=mode,
        verified=verified,
    )
