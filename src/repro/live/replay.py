"""Sim-vs-live comparison: one trace, two clocks, one policy stack.

:func:`replay_trace` drives a recorded ``repro-trace-v1`` workload
through the serving stack twice —

1. under the :class:`~repro.kernel.VirtualTimeBackend` (the
   deterministic DES every golden result uses), and
2. under an :class:`~repro.kernel.AsyncioBackend` (time-compressed by
   ``time_scale``, or ``fast_forward`` for a no-sleep run)

— using the *same* :func:`~repro.serving.runner.run_open_loop` source
both times.  Because the kernel is clock-agnostic, any disagreement
between the two :class:`~repro.core.metrics.RunMetrics` is attributable
to the clock: wall-time scheduling jitter, asyncio dispatch overhead,
or genuine nondeterminism — exactly the gap the comparison quantifies.
In ``fast_forward`` mode the dispatch order is identical, so the run is
a strict parity check (the test suite pins this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..kernel import AsyncioBackend
from ..serving.runner import ExperimentConfig, RunResult, run_open_loop
from ..workload import Workload

__all__ = ["ReplayReport", "replay_trace"]


def _pct(live: float, sim: float) -> Optional[float]:
    """Relative live-vs-sim delta, or None when sim is zero."""
    if sim == 0:
        return None
    return (live - sim) / sim


@dataclass(frozen=True)
class ReplayReport:
    """Side-by-side measurements of one trace under both clocks."""

    trace: str
    workload_name: str
    time_scale: float
    fast_forward: bool
    sim: RunResult
    live: RunResult

    @property
    def exact_parity_expected(self) -> bool:
        """Fast-forward replays dispatch in DES order: metrics match."""
        return self.fast_forward

    def rows(self) -> List[List[str]]:
        """(metric, sim, live, delta) rows for tabular display."""
        pairs = [
            ("completed requests", "{:,.0f}", float(self.sim.metrics.completed),
             float(self.live.metrics.completed)),
            ("throughput (req/s)", "{:,.2f}", self.sim.throughput, self.live.throughput),
            ("mean latency (ms)", "{:.3f}", self.sim.mean_latency * 1e3,
             self.live.mean_latency * 1e3),
            ("p50 latency (ms)", "{:.3f}", self.sim.metrics.latency.p50 * 1e3,
             self.live.metrics.latency.p50 * 1e3),
            ("p90 latency (ms)", "{:.3f}", self.sim.metrics.latency.p90 * 1e3,
             self.live.metrics.latency.p90 * 1e3),
            ("p99 latency (ms)", "{:.3f}", self.sim.p99_latency * 1e3,
             self.live.p99_latency * 1e3),
            ("mean batch size", "{:.3f}", self.sim.metrics.mean_batch_size,
             self.live.metrics.mean_batch_size),
            ("cache hit fraction", "{:.4f}", self.sim.metrics.cache_hit_fraction,
             self.live.metrics.cache_hit_fraction),
        ]
        rows = []
        for name, fmt, sim_value, live_value in pairs:
            delta = _pct(live_value, sim_value)
            rows.append([
                name,
                fmt.format(sim_value),
                fmt.format(live_value),
                "-" if delta is None else f"{delta:+.2%}",
            ])
        return rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace,
            "workload": self.workload_name,
            "time_scale": self.time_scale,
            "fast_forward": self.fast_forward,
            "sim_completed": self.sim.metrics.completed,
            "live_completed": self.live.metrics.completed,
            "sim_throughput": self.sim.throughput,
            "live_throughput": self.live.throughput,
            "sim_mean_latency": self.sim.mean_latency,
            "live_mean_latency": self.live.mean_latency,
            "sim_p50_latency": self.sim.metrics.latency.p50,
            "live_p50_latency": self.live.metrics.latency.p50,
            "sim_p99_latency": self.sim.p99_latency,
            "live_p99_latency": self.live.p99_latency,
            "sim_mean_batch_size": self.sim.metrics.mean_batch_size,
            "live_mean_batch_size": self.live.metrics.mean_batch_size,
            "sim_cache_hit_fraction": self.sim.metrics.cache_hit_fraction,
            "live_cache_hit_fraction": self.live.metrics.cache_hit_fraction,
        }


def replay_trace(
    trace: str,
    config: ExperimentConfig,
    *,
    time_scale: float = 60.0,
    fast_forward: bool = False,
) -> ReplayReport:
    """Replay ``trace`` through ``config``'s deployment under both clocks
    and report the comparison.

    ``time_scale`` compresses the live run (60 = one recorded minute
    per wall second); ``fast_forward`` removes sleeping entirely, which
    turns the live run into a strict parity check of the asyncio
    dispatch path.  ``config.telemetry`` attaches the identical
    observability stack — scraper, tracer, SLO — to both runs; being
    observer-neutral it never perturbs the parity.
    """
    workload = Workload.replay(trace)
    sim = run_open_loop(config, workload=workload)
    live = run_open_loop(
        config,
        workload=workload,
        backend=AsyncioBackend(time_scale=time_scale, fast_forward=fast_forward),
    )
    return ReplayReport(
        trace=trace,
        workload_name=workload.name,
        time_scale=time_scale,
        fast_forward=fast_forward,
        sim=sim,
        live=live,
    )
