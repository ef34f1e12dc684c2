"""Result export: CSV / JSON serialization of run measurements.

Downstream users want the regenerated figures as data, not just
terminal tables.  These helpers flatten :class:`RunMetrics` /
:class:`RunResult` objects into plain dictionaries and write
spreadsheets-friendly CSV or structured JSON.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Mapping, Sequence

from ..core.metrics import RunMetrics

__all__ = [
    "metrics_to_dict",
    "result_to_dict",
    "run_result_to_dict",
    "cluster_result_to_dict",
    "fleet_result_to_dict",
    "tuning_result_to_dict",
    "rows_to_csv",
    "rows_to_json",
    "write_csv",
    "write_json",
]


def metrics_to_dict(metrics: RunMetrics) -> Dict[str, Any]:
    """Flatten a RunMetrics into JSON/CSV-safe scalars."""
    out: Dict[str, Any] = {
        "window_seconds": metrics.window_seconds,
        "completed": metrics.completed,
        "throughput": metrics.throughput,
        "latency_mean": metrics.latency.mean,
        "latency_p50": metrics.latency.p50,
        "latency_p90": metrics.latency.p90,
        "latency_p99": metrics.latency.p99,
        "latency_max": metrics.latency.maximum,
        "mean_batch_size": metrics.mean_batch_size,
        "eviction_count": metrics.eviction_count,
        "timeout_count": metrics.timeout_count,
        "retry_count": metrics.retry_count,
        "shed_count": metrics.shed_count,
        "success_fraction": metrics.success_fraction,
    }
    for span, value in sorted(metrics.span_means.items()):
        out[f"span_{span}"] = value
    # Cache columns only appear on cached runs: window-gated hit counts
    # plus the run-global tier counters carried in extras.
    for tier, count in sorted(metrics.cache_hits.items()):
        out[f"cache_hits_{tier}"] = count
    for key, value in sorted(metrics.extras.items()):
        out[key] = value
    return out


def run_result_to_dict(result) -> Dict[str, Any]:
    """Flatten a :class:`~repro.serving.runner.RunResult`."""
    out = metrics_to_dict(result.metrics)
    out.update(
        {
            "cpu_joules_per_image": result.cpu_joules_per_image,
            "gpu_joules_per_image": result.gpu_joules_per_image,
            "joules_per_image": result.joules_per_image,
            "cpu_utilization": result.cpu_utilization,
            "gpu_utilization": result.gpu_utilization,
        }
    )
    return out


def fleet_result_to_dict(result) -> Dict[str, Any]:
    """Flatten a :class:`~repro.serving.fleet.FleetResult`."""
    out = metrics_to_dict(result.metrics)
    out.update(
        {
            "node_count": result.node_count,
            "offered_rate": result.offered_rate,
            "goodput_fraction": result.goodput_fraction,
            "balance_ratio": result.balance_ratio,
            "peak_backlog": result.peak_backlog,
            "fault_count": result.fault_count,
            "breaker_opens": result.breaker_opens,
        }
    )
    return out


def cluster_result_to_dict(result) -> Dict[str, Any]:
    """Flatten a :class:`~repro.cluster.ClusterResult`."""
    out = metrics_to_dict(result.metrics)
    out.update(
        {
            "cells": result.cluster.cells,
            "nodes_per_cell": result.cluster.nodes_per_cell,
            "node_count": result.node_count,
            "shard_count": result.shard_count,
            "routing": result.cluster.routing,
            "execution_mode": result.mode,
            "issued": result.issued,
            "cluster_timeouts": result.timeouts,
            "cluster_retries": result.retries,
            "cluster_shed": result.shed,
            "fluid_served": result.fluid_served,
            "cells_touched": result.cells_touched,
            "epochs": result.epochs,
            "epoch_seconds": result.epoch_seconds,
            "wall_seconds": result.wall_seconds,
            "busy_seconds": result.busy_seconds,
            "workers": result.workers,
            "parallel_efficiency": result.parallel_efficiency,
        }
    )
    if result.slo is not None:
        out["slo_met"] = result.slo.met
        out["slo_compliance"] = result.slo.compliance
    return out


def tuning_result_to_dict(result) -> Dict[str, Any]:
    """Flatten a :class:`~repro.core.tuner.TuningResult`."""
    return {
        "baseline_throughput": result.baseline.throughput,
        "best_throughput": result.best.throughput,
        "speedup": result.speedup,
        "improvement": result.improvement,
        "trace_points": len(result.trace),
        "best_preprocess_device": result.best.server.preprocess_device,
        "best_max_batch": result.best.server.max_batch_size,
        "best_instances": result.best.server.inference_instances,
        "best_concurrency": result.best.concurrency,
    }


def result_to_dict(result) -> Dict[str, Any]:
    """Flatten any result object into JSON/CSV-safe scalars.

    Dispatches on shape rather than type so the result dataclasses can
    delegate here without circular imports: a fleet result carries
    ``dispatched_per_node``, a tuning result carries ``baseline`` and
    ``best``, and anything else with ``metrics`` is a single-node run.
    """
    if hasattr(result, "dispatched_per_node"):
        return fleet_result_to_dict(result)
    if hasattr(result, "shard_count") and hasattr(result, "cluster"):
        return cluster_result_to_dict(result)
    if hasattr(result, "baseline") and hasattr(result, "best"):
        return tuning_result_to_dict(result)
    return run_result_to_dict(result)


def _field_names(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    names: List[str] = []
    for row in rows:
        for key in row:
            if key not in names:
                names.append(key)
    return names


def rows_to_csv(rows: Sequence[Mapping[str, Any]]) -> str:
    """Render dict-rows as a CSV string (union of keys as the header)."""
    if not rows:
        raise ValueError("no rows to export")
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_field_names(rows), restval="")
    writer.writeheader()
    for row in rows:
        writer.writerow(dict(row))
    return buffer.getvalue()


def rows_to_json(rows: Sequence[Mapping[str, Any]], indent: int = 2) -> str:
    """Render dict-rows as a JSON array string."""
    if not rows:
        raise ValueError("no rows to export")
    return json.dumps([dict(row) for row in rows], indent=indent, sort_keys=True)


def write_csv(path: str, rows: Sequence[Mapping[str, Any]]) -> None:
    with open(path, "w", newline="") as handle:
        handle.write(rows_to_csv(rows))


def write_json(path: str, rows: Sequence[Mapping[str, Any]]) -> None:
    with open(path, "w") as handle:
        handle.write(rows_to_json(rows))
