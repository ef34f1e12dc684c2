"""Fault-tolerance experiments: goodput and tail latency vs fault rate.

The headline robustness question: how much of the paper's healthy-
testbed throughput survives a given fault rate, and what do deadlines,
retries, and circuit breaking buy?  One fleet under one fault plan is
:func:`~repro.serving.fleet.run_fleet_experiment` with ``faults=``
(which turns the default resilience policy on);
:func:`sweep_fault_rates` walks GPU downtime fractions and reports
goodput/p99 degradation against the fault-free baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence

from ..core.config import ServerConfig
from ..serving.fleet import FleetResult, run_fleet_experiment
from ..serving.resilience import ResiliencePolicy
from .profiles import gpu_crash_plan

__all__ = ["FaultSweepPoint", "sweep_fault_rates"]


@dataclass(frozen=True, kw_only=True)
class FaultSweepPoint:
    """One point of a fault-rate sweep, relative to the healthy baseline."""

    downtime_fraction: float
    result: FleetResult
    baseline: FleetResult

    @property
    def goodput_ratio(self) -> float:
        """Throughput under faults relative to the fault-free run."""
        if self.baseline.throughput <= 0:
            return 0.0
        return self.result.throughput / self.baseline.throughput

    @property
    def p99_ratio(self) -> float:
        """p99 latency under faults relative to the fault-free run."""
        if self.baseline.metrics.latency.p99 <= 0:
            return float("inf")
        return self.result.metrics.latency.p99 / self.baseline.metrics.latency.p99

    @property
    def retries(self) -> int:
        return self.result.metrics.retry_count

    @property
    def timeouts(self) -> int:
        return self.result.metrics.timeout_count


def _call(run: Callable[[], FleetResult]) -> FleetResult:
    """Sweep task: execute one bound fleet run."""
    return run()


def sweep_fault_rates(
    server_config: ServerConfig,
    downtime_fractions: Sequence[float] = (0.005, 0.01, 0.02, 0.05),
    restart_seconds: float = 0.5,
    resilience: Optional[ResiliencePolicy] = None,
    workers: Optional[int] = None,
    node_count: int = 2,
    **run_kwargs,
) -> List[FaultSweepPoint]:
    """GPU-crash sweep: goodput/p99 degradation vs per-GPU downtime.

    Runs one fault-free baseline plus one experiment per downtime
    fraction; all runs share the same seed and load, so differences are
    attributable to the injected faults alone.  The baseline and every
    fault point are independent simulations, so ``workers > 1`` fans
    them across CPU cores via :func:`repro.parallel.run_sweep` with
    bit-identical results.
    """
    # Imported here: keeps the process-pool machinery out of `import repro`.
    from ..parallel import ParallelConfig, run_sweep

    if resilience is None:
        resilience = ResiliencePolicy()
    plans = [
        gpu_crash_plan(fraction, restart_seconds=restart_seconds)
        for fraction in downtime_fractions
    ]
    runs = [
        partial(run_fleet_experiment, server_config, node_count, faults=faults,
                resilience=resilience, **run_kwargs)
        for faults in [None, *plans]
    ]
    report = run_sweep(_call, runs, ParallelConfig(workers=max(workers or 1, 1)))
    baseline, *results = report.values
    return [
        FaultSweepPoint(downtime_fraction=fraction, result=result, baseline=baseline)
        for fraction, result in zip(downtime_fractions, results)
    ]
