"""Load generation and the experiment runner."""

from .client import ClosedLoopClient, WorkloadClient
from .autoscaler import AutoscaledFleet, AutoscalerPolicy, ScalingEvent
from .fleet import (
    CapacityPlan,
    Fleet,
    FleetResult,
    LEAST_OUTSTANDING,
    LoadBalancer,
    ROUND_ROBIN,
    plan_capacity,
    run_fleet_experiment,
)
from .resilience import (
    BreakerPolicy,
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
)
from .runner import ExperimentConfig, RunResult, run_experiment, run_face_pipeline, run_open_loop

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "ResiliencePolicy",
    "RetryPolicy",
    "AutoscaledFleet",
    "AutoscalerPolicy",
    "ScalingEvent",
    "CapacityPlan",
    "WorkloadClient",
    "ClosedLoopClient",
    "Fleet",
    "FleetResult",
    "LEAST_OUTSTANDING",
    "LoadBalancer",
    "ROUND_ROBIN",
    "plan_capacity",
    "run_fleet_experiment",
    "ExperimentConfig",
    "RunResult",
    "run_experiment",
    "run_face_pipeline",
    "run_open_loop",
]
