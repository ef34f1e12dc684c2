"""Latency-breakdown post-processing.

Turns :class:`~repro.core.metrics.RunMetrics` span ledgers into the
groupings the paper plots: *preprocessing* vs *DNN inference* vs *other
overheads* (Fig. 6), the inference-time percentage (Fig. 4 bottom), and
queue share (Fig. 5 right).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.metrics import RunMetrics
from ..core.request import (
    SPAN_FRONTEND,
    SPAN_INFERENCE,
    SPAN_POSTPROCESS,
    SPAN_PREPROCESS,
    SPAN_PREPROCESS_WAIT,
    SPAN_QUEUE,
    SPAN_TRANSFER,
)
from ..sim.sums import float_sum

__all__ = ["LatencyBreakdown", "breakdown_from_metrics", "cache_summary", "resilience_summary"]

#: Spans grouped the way the paper's figures group them.
PREPROCESS_SPANS = (SPAN_PREPROCESS_WAIT, SPAN_PREPROCESS)
OVERHEAD_SPANS = (SPAN_FRONTEND, SPAN_QUEUE, SPAN_TRANSFER, SPAN_POSTPROCESS)


@dataclass(frozen=True)
class LatencyBreakdown:
    """Mean request latency split into the paper's categories (seconds)."""

    total: float
    preprocess: float
    inference: float
    queue: float
    transfer: float
    other: float

    @property
    def preprocess_fraction(self) -> float:
        """Preprocessing share of latency — the Fig. 6 headline number."""
        return self.preprocess / self.total if self.total > 0 else 0.0

    @property
    def inference_fraction(self) -> float:
        """DNN share of latency — Fig. 4 bottom."""
        return self.inference / self.total if self.total > 0 else 0.0

    @property
    def queue_fraction(self) -> float:
        """Queueing share of latency — Fig. 5 right."""
        return self.queue / self.total if self.total > 0 else 0.0

    @property
    def overhead_fraction(self) -> float:
        """Everything that is not DNN inference."""
        return 1.0 - self.inference_fraction


def breakdown_from_metrics(metrics: RunMetrics) -> LatencyBreakdown:
    """Group a run's mean spans into the paper's categories."""
    total = metrics.latency.mean
    preprocess = float_sum(metrics.span_mean(span) for span in PREPROCESS_SPANS)
    inference = metrics.span_mean(SPAN_INFERENCE)
    queue = metrics.span_mean(SPAN_QUEUE)
    transfer = metrics.span_mean(SPAN_TRANSFER)
    accounted = preprocess + inference + queue + transfer
    other = max(0.0, total - accounted)
    return LatencyBreakdown(
        total=total,
        preprocess=preprocess,
        inference=inference,
        queue=queue,
        transfer=transfer,
        other=other,
    )


def cache_summary(metrics: RunMetrics) -> Dict[str, float]:
    """Cache outcome counters for a run (:mod:`repro.cache`).

    Combines the window-gated per-tier hit counts with the run-global
    tier counters the runner folds into ``extras``.  All values are zero
    for an uncached run, so the summary is safe to report
    unconditionally.
    """
    out: Dict[str, float] = {
        "completed": float(metrics.completed),
        "cache_hit_count": float(metrics.cache_hit_count),
        "cache_hit_fraction": metrics.cache_hit_fraction,
    }
    for tier in ("result", "tensor", "image"):
        out[f"cache_hits_{tier}"] = float(metrics.cache_hits.get(tier, 0))
    for key, value in sorted(metrics.extras.items()):
        if key.startswith("cache_"):
            out[key] = value
    return out


def resilience_summary(metrics: RunMetrics) -> Dict[str, float]:
    """Fault-handling outcome counters for a run.

    ``success_fraction`` is the SLO-attainment number: requests that
    completed within their deadline over everything the system accepted
    (successes + timeouts + shed).  All values are zero for a fault-free
    run, so the summary is safe to report unconditionally.
    """
    return {
        "completed": metrics.completed,
        "timeout_count": metrics.timeout_count,
        "retry_count": metrics.retry_count,
        "shed_count": metrics.shed_count,
        "success_fraction": metrics.success_fraction,
    }
