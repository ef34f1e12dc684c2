"""The picklable single-node sweep point and its module-level task.

A sweep point is the runner's own input: an :class:`ExperimentPoint`
wraps one :class:`~repro.serving.runner.ExperimentConfig` (whose
``server`` names the deployment: classification, the face pipeline or
video) and :func:`run_experiment_point` executes it and returns the flat
``.to_dict()`` row.  ``tags`` ride along verbatim as leading row
columns, so sweep output stays self-describing ("which concurrency /
skew / broker was this row?") without the executor knowing anything
about the experiment.

Import hygiene matters here: this module is what a spawned worker
imports, so it must stay free of plotting/analysis-front-end imports
(enforced by :data:`repro.parallel.executor.HEAVY_MODULES` and the
import-hygiene tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..serving.runner import ExperimentConfig, run_experiment, run_open_loop
from ..workload import Workload

__all__ = ["ExperimentPoint", "run_experiment_point"]

Tags = Tuple[Tuple[str, Any], ...]


@dataclass(frozen=True, kw_only=True)
class ExperimentPoint:
    """One single-node experiment: closed-loop, or open-loop when
    ``workload`` is set."""

    config: ExperimentConfig
    #: Open-loop workload spec.  A trace replay point is picklable (the
    #: worker re-opens the file), so sweeps over a recorded day
    #: parallelize like any other point.  A closed-loop run's request
    #: mix belongs in ``config.workload`` instead.
    workload: Optional[Workload] = None
    #: Extra row columns, e.g. ``(("concurrency", 64),)``.
    tags: Tags = ()


def run_experiment_point(point: ExperimentPoint) -> Dict[str, Any]:
    """Task: run one :class:`ExperimentPoint`, return its flat row."""
    if point.workload is not None:
        result = run_open_loop(point.config, workload=point.workload)
    else:
        result = run_experiment(point.config)
    return {**dict(point.tags), **result.to_dict()}
