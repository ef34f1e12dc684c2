"""Cluster coordinator: conservative lockstep epochs over shard loops.

The serial coordinator advances every shard in lockstep windows of
``ClusterConfig.resolved_epoch_seconds()`` — by default the minimum
one-way fabric latency, the classic conservative-lookahead bound: a
routing decision made in epoch ``k`` cannot be delivered before epoch
``k + 1``, so each shard can safely simulate a whole window without
hearing from anyone.  Empty windows are skipped wholesale (the epoch
counter jumps straight to the window holding the next arrival or shard
event), which is what lets a 24h day with sub-millisecond epochs finish
in minutes.

With a feedback-free routing policy (``hash``/``round_robin``) the
routing tier never reads shard state, so each shard's input stream is a
pure function of the workload — and shards can run to completion
independently, one process-pool worker each (``execution="process"``,
reusing :mod:`repro.parallel`).  Both paths feed the same canonical
merge, so their results are bit-identical (pinned by tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import ServerConfig
from ..core.metrics import RunMetrics
from ..hardware.calibration import DEFAULT_CALIBRATION, Calibration
from ..parallel import ParallelConfig, run_sweep
from ..telemetry.slo import SloConfig, SloReport, SloTracker
from ..workload import Workload
from .config import ROUTE_LEAST_BACKLOG, EXEC_PROCESS, ClusterConfig
from .records import CompletionRecord, canonical_order, merge_records, slo_feed
from .shards import (
    Arrival,
    ShardPoint,
    ShardRuntime,
    arrival_stream,
    route_cell,
    run_shard_point,
)
from .tracing import TraceSampler, TraceSpanRecord, merge_trace_records

__all__ = ["ClusterResult", "ShardSummary", "run_cluster_experiment"]

_INF = float("inf")


def _epoch_index(t: float, width: float) -> int:
    """Index of the aligned window containing ``t`` (float-safe floor)."""
    k = int(t // width)
    # ``//`` on floats can land one window off in either direction when
    # t sits on (or within an ulp of) a boundary; nudge back onto the
    # grid so k * width <= t < (k + 1) * width.
    while k * width > t:
        k -= 1
    while (k + 1) * width <= t:
        k += 1
    return k


@dataclass(frozen=True)
class ShardSummary:
    """Per-shard accounting (packing-dependent: excluded from equality)."""

    shard_id: int
    cells: int
    cells_touched: int
    delivered: int
    completed: int
    timeouts: int
    retries: int
    shed: int
    fluid_served: int
    #: Shard-local SLO view (``SloReport.as_dict()``), or ``None``.
    slo: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one sharded cluster run."""

    cluster: ClusterConfig
    metrics: RunMetrics
    shard_count: int
    #: Requests issued by the global routing tier.
    issued: int
    completed: int
    timeouts: int
    retries: int
    shed: int
    #: Requests served by the fluid cold-cell model (0 unless enabled).
    fluid_served: int
    #: Cells that received at least one request.
    cells_touched: int
    #: Lockstep windows executed (0 under process execution, where the
    #: window is provably inert and shards run free).
    epochs: int
    epoch_seconds: float
    wall_seconds: float
    busy_seconds: float
    workers: int
    mode: str
    shards: Tuple[ShardSummary, ...] = field(compare=False, default=())
    #: Cluster-wide SLO view, or ``None`` when no SloConfig was given.
    slo: Optional[SloReport] = field(compare=False, default=None)
    #: Canonically ordered distributed-trace span records (empty unless
    #: ``trace_sessions`` was set).  Excluded from equality: the record
    #: set is deterministic but carries unhashable timelines.
    traces: Tuple[TraceSpanRecord, ...] = field(compare=False, default=())
    #: Post-hoc fleet time series (``timeseries_interval``), or None.
    timeseries: Optional[object] = field(compare=False, default=None)

    @property
    def node_count(self) -> int:
        return self.cluster.node_count

    @property
    def parallel_efficiency(self) -> float:
        """In-worker busy time over wall clock x workers."""
        denom = self.wall_seconds * self.workers
        return self.busy_seconds / denom if denom > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Flat dict of the cluster measurements (see
        :func:`repro.analysis.export.result_to_dict`)."""
        from ..analysis.export import result_to_dict

        return result_to_dict(self)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"cluster[{self.cluster.cells}x{self.cluster.nodes_per_cell} nodes"
            f"/{self.shard_count} shards {self.mode}] "
            f"issued={self.issued} completed={self.completed} "
            f"p99={self.metrics.latency.p99 * 1e3:.1f}ms "
            f"epochs={self.epochs} wall={self.wall_seconds:.2f}s"
        )

    def write_trace(self, path: str) -> int:
        """Export the merged cross-cell Perfetto trace; event count."""
        from .tracing import write_cluster_trace

        if not self.traces:
            raise RuntimeError(
                "no trace records collected; run with trace_sessions > 0"
            )
        return write_cluster_trace(path, self.traces)

    def write_timeseries(self, path: str) -> int:
        """Export the post-hoc time series as JSONL; series count."""
        if self.timeseries is None:
            raise RuntimeError(
                "no time series built; run with timeseries_interval set"
            )
        self.timeseries.to_jsonl(path)
        return len(self.timeseries)


def _require_bounded(
    workload: Workload,
    max_requests: Optional[int],
    max_sim_seconds: Optional[float],
) -> None:
    if max_requests is not None or max_sim_seconds is not None:
        return
    if workload.is_replay or workload.duration_seconds is not None:
        return
    raise ValueError(
        "cluster runs need a bounded workload: give the workload a "
        "duration, use a replay trace, or pass max_requests/max_sim_seconds"
    )


def run_cluster_experiment(
    server_config: ServerConfig,
    cluster: ClusterConfig,
    workload: Workload,
    *,
    seed: int = 0,
    calibration: Calibration = DEFAULT_CALIBRATION,
    max_requests: Optional[int] = None,
    max_sim_seconds: Optional[float] = None,
    slo: Optional[SloConfig] = None,
    trace_sessions: int = 0,
    trace_limit: int = 2000,
    timeseries_interval: Optional[float] = None,
) -> ClusterResult:
    """Simulate ``workload`` against a sharded cluster topology.

    The simulated outcome (``metrics``) depends only on
    ``(server_config, cluster topology, workload, seed)`` — never on
    ``cluster.shards``, ``cluster.execution``, or ``cluster.workers``,
    which select how the work is executed, not what is simulated.
    Observability add-ons are equally inert: ``trace_sessions > 0``
    samples that many user sessions for distributed tracing (the merged
    Perfetto trace on :attr:`ClusterResult.traces`) and
    ``timeseries_interval`` builds the post-hoc fleet time series, both
    without perturbing ``metrics`` (pinned by the neutrality tests).
    """
    cluster = cluster.validate()
    _require_bounded(workload, max_requests, max_sim_seconds)
    if trace_sessions < 0:
        raise ValueError(f"trace_sessions must be >= 0, got {trace_sessions}")
    plan = cluster.plan()
    start = time.perf_counter()

    if cluster.execution == EXEC_PROCESS:
        per_cell, per_shard_raw, issued, busy, workers = _run_process(
            server_config, cluster, calibration, workload, seed,
            plan.shard_cells, max_requests, max_sim_seconds,
            trace_sessions, trace_limit,
        )
        epochs = 0
        mode = EXEC_PROCESS
    else:
        per_cell, per_shard_raw, issued, epochs = _run_serial(
            server_config, cluster, calibration, workload, seed,
            plan.shard_cells, max_requests, max_sim_seconds,
            trace_sessions, trace_limit,
        )
        busy = None
        workers = 1
        mode = "serial"

    ordered = canonical_order(per_cell)
    totals = {"timeouts": 0, "retries": 0, "shed": 0,
              "fluid_served": 0, "delivered": 0, "cells_touched": 0}
    for raw in per_shard_raw:
        for key in totals:
            totals[key] += raw["counters"][key]
    metrics = merge_records(
        ordered,
        retry_count=totals["retries"],
        shed_count=totals["shed"],
    )

    slo_report: Optional[SloReport] = None
    summaries: List[ShardSummary] = []
    window_end = ordered[-1].completion_time if ordered else 0.0
    if slo is not None:
        tracker = SloTracker(slo)
        slo_feed(tracker, ordered)
        slo_report = tracker.report(window_end)
    for raw, cell_ids in zip(per_shard_raw, plan.shard_cells):
        shard_slo: Optional[Dict[str, Any]] = None
        shard_records = canonical_order(raw["cells"].items())
        if slo is not None and shard_records:
            shard_tracker = SloTracker(slo)
            slo_feed(shard_tracker, shard_records)
            shard_slo = shard_tracker.report(window_end).as_dict()
        summaries.append(
            ShardSummary(
                shard_id=raw["shard_id"],
                cells=len(cell_ids),
                cells_touched=raw["counters"]["cells_touched"],
                delivered=raw["counters"]["delivered"],
                completed=len(shard_records),
                timeouts=raw["counters"]["timeouts"],
                retries=raw["counters"]["retries"],
                shed=raw["counters"]["shed"],
                fluid_served=raw["counters"]["fluid_served"],
                slo=shard_slo,
            )
        )

    traces: Tuple[TraceSpanRecord, ...] = ()
    if trace_sessions > 0:
        sessions: Dict[str, str] = {}
        for raw in per_shard_raw:
            sessions.update(raw.get("sessions", {}))
        traces = merge_trace_records(
            (raw.get("traces", ()) for raw in per_shard_raw), sessions
        )

    timeseries = None
    if timeseries_interval is not None:
        from .timeseries import cluster_timeseries

        timeseries = cluster_timeseries(
            per_cell, interval=timeseries_interval, slo=slo,
        )

    wall = time.perf_counter() - start
    return ClusterResult(
        cluster=cluster,
        metrics=metrics,
        shard_count=plan.shards,
        issued=issued,
        completed=len(ordered),
        timeouts=totals["timeouts"],
        retries=totals["retries"],
        shed=totals["shed"],
        fluid_served=totals["fluid_served"],
        cells_touched=totals["cells_touched"],
        epochs=epochs,
        epoch_seconds=cluster.resolved_epoch_seconds(),
        wall_seconds=wall,
        busy_seconds=wall if busy is None else busy,
        workers=workers,
        mode=mode,
        shards=tuple(summaries),
        slo=slo_report,
        traces=traces,
        timeseries=timeseries,
    )


# -- serial coordinator ----------------------------------------------------


def _pick_least_backlog(
    cluster: ClusterConfig,
    shards: List[ShardRuntime],
    shard_of: List[int],
) -> int:
    """Cell with the smallest backlog snapshot (ties -> lowest cell id).

    Snapshots are *epoch-stale*: they reflect shard state at the last
    processed epoch boundary.  That staleness is exactly what a real
    global router sees — its view of a remote cell is always at least
    one network latency old — and because the epoch never exceeds the
    minimum latency, the simulation is conservative, not optimistic.
    """
    best = 0
    best_load = shards[shard_of[0]].cell_load(0)
    for cell_id in range(1, cluster.cells):
        load = shards[shard_of[cell_id]].cell_load(cell_id)
        if load < best_load:
            best = cell_id
            best_load = load
    return best


def _run_serial(
    server_config: ServerConfig,
    cluster: ClusterConfig,
    calibration: Calibration,
    workload: Workload,
    seed: int,
    shard_cells: Tuple[Tuple[int, ...], ...],
    max_requests: Optional[int],
    max_sim_seconds: Optional[float],
    trace_sessions: int = 0,
    trace_limit: int = 2000,
) -> Tuple[
    List[Tuple[int, List[CompletionRecord]]],
    List[Dict[str, Any]],
    int,
    int,
]:
    shards = [
        ShardRuntime(
            shard_id, cells, cluster, server_config, calibration,
            trace_limit=trace_limit if trace_sessions > 0 else 0,
        )
        for shard_id, cells in enumerate(shard_cells)
    ]
    shard_of = [0] * cluster.cells
    for shard_id, cells in enumerate(shard_cells):
        for cell_id in cells:
            shard_of[cell_id] = shard_id

    stale_routing = cluster.routing == ROUTE_LEAST_BACKLOG
    width = cluster.resolved_epoch_seconds()
    sampler = TraceSampler(seed, trace_sessions) if trace_sessions > 0 else None
    arrivals = arrival_stream(
        workload, seed,
        max_requests=max_requests, max_sim_seconds=max_sim_seconds,
    )

    def _draw() -> Optional[Arrival]:
        arrival = next(arrivals, None)
        if arrival is not None and sampler is not None:
            arrival.trace = sampler.trace_for(arrival)
        return arrival

    pending: Optional[Arrival] = _draw()
    issued = 0
    epochs = 0

    while True:
        candidate = pending.t if pending is not None else _INF
        for shard in shards:
            peek = shard.env.peek()
            if peek < candidate:
                candidate = peek
        if candidate == _INF:
            break
        epochs += 1
        boundary = (_epoch_index(candidate, width) + 1) * width

        # Route every arrival inside this window.  Deliveries land at
        # t + ingress >= boundary whenever the epoch is bounded by the
        # minimum latency, so stale-state routing never sees the effect
        # of a decision made in the same window.
        while pending is not None and pending.t < boundary:
            if stale_routing:
                cell_id = _pick_least_backlog(cluster, shards, shard_of)
            else:
                cell_id = route_cell(cluster, pending)
            shards[shard_of[cell_id]].deliver(
                cell_id, pending,
                pending.t + cluster.ingress_latency(cell_id),
            )
            issued += 1
            pending = _draw()

        # Advance every shard with work inside the window to the
        # boundary.  Cells are independent, so the order is irrelevant.
        for shard in shards:
            env = shard.env
            if env.peek() < boundary:
                env.run(until=boundary)

    per_cell: List[Tuple[int, List[CompletionRecord]]] = []
    per_shard: List[Dict[str, Any]] = []
    for shard in shards:
        records = shard.per_cell_records()
        per_cell.extend(records)
        per_shard.append({
            "shard_id": shard.shard_id,
            "cells": dict(records),
            "counters": shard.counters(),
            "traces": shard.trace_records(),
            "sessions": dict(sampler.sessions) if sampler is not None else {},
        })
    return per_cell, per_shard, issued, epochs


# -- process-pool execution ------------------------------------------------


def _run_process(
    server_config: ServerConfig,
    cluster: ClusterConfig,
    calibration: Calibration,
    workload: Workload,
    seed: int,
    shard_cells: Tuple[Tuple[int, ...], ...],
    max_requests: Optional[int],
    max_sim_seconds: Optional[float],
    trace_sessions: int = 0,
    trace_limit: int = 2000,
) -> Tuple[
    List[Tuple[int, List[CompletionRecord]]],
    List[Dict[str, Any]],
    int,
    float,
    int,
]:
    points = [
        ShardPoint(
            cluster=cluster,
            server=server_config,
            calibration=calibration,
            workload=workload,
            seed=seed,
            cell_ids=cells,
            shard_id=shard_id,
            max_requests=max_requests,
            max_sim_seconds=max_sim_seconds,
            trace_sessions=trace_sessions,
            trace_limit=trace_limit,
        )
        for shard_id, cells in enumerate(shard_cells)
    ]
    workers = cluster.workers if cluster.workers is not None else len(points)
    report = run_sweep(
        run_shard_point, points, ParallelConfig(workers=workers),
    )
    per_cell: List[Tuple[int, List[CompletionRecord]]] = []
    per_shard: List[Dict[str, Any]] = []
    issued = 0
    for result in report.results:
        raw = result.value
        issued = max(issued, raw["issued"])
        per_cell.extend(raw["cells"].items())
        per_shard.append(raw)
    return per_cell, per_shard, issued, report.busy_seconds, report.workers
