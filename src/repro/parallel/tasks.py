"""Picklable sweep-point specs and their module-level task functions.

Every experiment front door in the repository gets a frozen *point*
dataclass (the picklable spec shipped to a worker) and a module-level
``run_*_point`` task (picklable by reference) that executes it and
returns the flat ``.to_dict()`` row.  ``tags`` ride along verbatim as
leading row columns, so sweep output stays self-describing ("which
concurrency / skew / broker was this row?") without the executor
knowing anything about the experiment.

Import hygiene matters here: this module is what a spawned worker
imports, so it must stay free of plotting/analysis-front-end imports
(enforced by :data:`repro.parallel.executor.HEAVY_MODULES` and the
import-hygiene tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.config import ServerConfig
from ..hardware.calibration import DEFAULT_CALIBRATION, Calibration
from ..serving.fleet import run_fleet_experiment
from ..serving.runner import ExperimentConfig, run_experiment, run_open_loop
from ..workload import Workload

__all__ = [
    "ExperimentPoint",
    "FacePipelinePoint",
    "FleetPoint",
    "run_experiment_point",
    "run_face_pipeline_point",
    "run_fleet_point",
    "run_fleet_result_point",
]

Tags = Tuple[Tuple[str, Any], ...]


def _tag_dict(tags: Tags) -> Dict[str, Any]:
    return dict(tags)


@dataclass(frozen=True, kw_only=True)
class ExperimentPoint:
    """One single-node experiment: closed-loop, or open-loop when
    ``workload`` is set."""

    config: ExperimentConfig
    #: Open-loop workload spec.  A trace replay point is picklable (the
    #: worker re-opens the file), so sweeps over a recorded day
    #: parallelize like any other point.
    workload: Optional[Workload] = None
    #: Extra row columns, e.g. ``(("concurrency", 64),)``.
    tags: Tags = ()


def run_experiment_point(point: ExperimentPoint) -> Dict[str, Any]:
    """Task: run one :class:`ExperimentPoint`, return its flat row."""
    if point.workload is not None:
        result = run_open_loop(point.config, workload=point.workload)
    else:
        result = run_experiment(point.config)
    return {**_tag_dict(point.tags), **result.to_dict()}


@dataclass(frozen=True, kw_only=True)
class FacePipelinePoint:
    """One multi-DNN face-pipeline experiment (paper Sec. 4.7)."""

    pipeline: Any  # FacePipelineConfig; typed loosely to avoid app import
    concurrency: int = 96
    gpu_count: int = 1
    calibration: Calibration = DEFAULT_CALIBRATION
    seed: int = 0
    warmup_requests: int = 150
    measure_requests: int = 1200
    max_sim_seconds: float = 600.0
    think_jitter_seconds: float = 2e-3
    workload: Optional[Workload] = None
    tags: Tags = ()


def run_face_pipeline_point(point: FacePipelinePoint) -> Dict[str, Any]:
    """Task: run one :class:`FacePipelinePoint`, return its flat row."""
    from ..serving.runner import run_face_pipeline

    result = run_face_pipeline(
        point.pipeline,
        concurrency=point.concurrency,
        gpu_count=point.gpu_count,
        calibration=point.calibration,
        seed=point.seed,
        warmup_requests=point.warmup_requests,
        measure_requests=point.measure_requests,
        max_sim_seconds=point.max_sim_seconds,
        think_jitter_seconds=point.think_jitter_seconds,
        workload=point.workload,
    )
    return {**_tag_dict(point.tags), **result.to_dict()}


@dataclass(frozen=True, kw_only=True)
class FleetPoint:
    """One fleet experiment (load balancer + N nodes), optionally with a
    fault plan and resilience policy."""

    server: ServerConfig = field(default_factory=ServerConfig)
    workload: Workload
    node_count: int = 2
    calibration: Calibration = DEFAULT_CALIBRATION
    gpu_count: int = 1
    per_node_cap: int = 512
    seed: int = 0
    warmup_requests: int = 300
    measure_requests: int = 2000
    max_sim_seconds: float = 60.0
    resilience: Optional[Any] = None
    faults: Optional[Any] = None
    tags: Tags = ()

    def _run(self):
        return run_fleet_experiment(
            self.server,
            faults=self.faults,
            resilience=self.resilience,
            node_count=self.node_count,
            workload=self.workload,
            calibration=self.calibration,
            gpu_count=self.gpu_count,
            per_node_cap=self.per_node_cap,
            seed=self.seed,
            warmup_requests=self.warmup_requests,
            measure_requests=self.measure_requests,
            max_sim_seconds=self.max_sim_seconds,
        )


def run_fleet_point(point: FleetPoint) -> Dict[str, Any]:
    """Task: run one :class:`FleetPoint`, return its flat row."""
    return {**_tag_dict(point.tags), **point._run().to_dict()}


def run_fleet_result_point(point: FleetPoint):
    """Task: run one :class:`FleetPoint`, return the full
    :class:`~repro.serving.fleet.FleetResult` (picklable when telemetry
    is off) for callers that need the rich object, e.g.
    :func:`repro.faults.experiment.sweep_fault_rates`."""
    return point._run()
