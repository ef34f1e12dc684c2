"""Parallel sweep execution: fan independent experiment points across cores.

Public surface::

    from repro.parallel import (
        ParallelConfig, run_sweep, derive_seed,
        ExperimentPoint, run_experiment_point,
    )

    points = [ExperimentPoint(config=replace(cfg, concurrency=c),
                              tags=(("concurrency", c),))
              for c in (1, 16, 64, 256)]
    report = run_sweep(run_experiment_point, points,
                       ParallelConfig(workers=4))
    rows = report.values        # ordered, bit-identical to serial

Every point is an independent simulation (own Environment, own RNG
family), so serial and parallel execution produce bit-identical
results.
"""

from .executor import (
    HEAVY_MODULES,
    ParallelConfig,
    PointResult,
    SweepError,
    SweepReport,
    derive_seed,
    run_sweep,
)
from .tasks import ExperimentPoint, run_experiment_point

__all__ = [
    "HEAVY_MODULES",
    "ParallelConfig",
    "PointResult",
    "SweepError",
    "SweepReport",
    "derive_seed",
    "run_sweep",
    "ExperimentPoint",
    "run_experiment_point",
]
