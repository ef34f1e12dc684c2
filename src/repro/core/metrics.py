"""Serving metrics: throughput, latency statistics, span breakdowns.

A :class:`MetricsCollector` is armed for a measurement window (after
warm-up) and fed every completed request; it produces the quantities the
paper reports: throughput (img/s), average and tail latency, and the
per-span latency breakdown (preprocess / queue / transfer / inference /
...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.sums import float_sum
from .request import ALL_SPANS, OUTCOME_OK, InferenceRequest

__all__ = ["LatencyStats", "MetricsCollector", "RunMetrics", "percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted values, q in [0, 100]."""
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100) * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    frac = rank - low
    # a + (b - a) * frac is exact when a == b (the naive weighted form
    # a*(1-frac) + b*frac can drift one ulp outside [a, b]).
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * frac


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics of a latency sample."""

    count: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float

    @classmethod
    def empty(cls) -> "LatencyStats":
        """Zero-sample statistics (a window in which nothing succeeded)."""
        return cls(count=0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, maximum=0.0)

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyStats":
        if not values:
            raise ValueError("no latency samples")
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean=float_sum(ordered) / len(ordered),
            p50=percentile(ordered, 50),
            p90=percentile(ordered, 90),
            p99=percentile(ordered, 99),
            maximum=ordered[-1],
        )


@dataclass(frozen=True)
class RunMetrics:
    """Everything measured in one experiment window."""

    window_seconds: float
    completed: int
    throughput: float  # requests/second
    latency: LatencyStats
    span_means: Dict[str, float]  # mean seconds per span
    span_fractions: Dict[str, float]  # share of mean latency per span
    mean_batch_size: float
    eviction_count: int
    #: Every sampled request latency (sorted ascending), for post-hoc
    #: analysis: histograms, CDFs, SLO attainment.
    latencies: Tuple[float, ...] = ()
    extras: Dict[str, float] = field(default_factory=dict)
    #: Requests that completed past their deadline inside the window.
    timeout_count: int = 0
    #: Retry attempts the load balancer issued inside the window.
    retry_count: int = 0
    #: Requests rejected by admission control inside the window.
    shed_count: int = 0
    #: Window-gated cache-hit counts per tier ("result", "tensor",
    #: "image"); empty when caching is disabled.  Run-global tier
    #: counters (evictions, bytes, rates) live in ``extras``.
    cache_hits: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "RunMetrics":
        """A window in which nothing completed (e.g. a live node shut
        down before serving any request)."""
        return cls(
            window_seconds=0.0,
            completed=0,
            throughput=0.0,
            latency=LatencyStats.empty(),
            span_means={},
            span_fractions={},
            mean_batch_size=0.0,
            eviction_count=0,
        )

    def latency_histogram(self, buckets: int = 10) -> List[Tuple[float, float, int]]:
        """Equal-width histogram of request latencies.

        Returns (bucket_low, bucket_high, count) triples spanning
        [min, max]; the last bucket is inclusive of the maximum.
        """
        if buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        if not self.latencies:
            raise ValueError("no latencies recorded")
        lo = self.latencies[0]
        hi = self.latencies[-1]
        if hi <= lo:
            return [(lo, hi, len(self.latencies))]
        width = (hi - lo) / buckets
        counts = [0] * buckets
        for value in self.latencies:
            index = min(buckets - 1, int((value - lo) / width))
            counts[index] += 1
        return [
            (lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(buckets)
        ]

    def slo_attainment(self, slo_seconds: float) -> float:
        """Fraction of sampled requests completing within ``slo_seconds``."""
        if slo_seconds <= 0:
            raise ValueError("SLO must be positive")
        if not self.latencies:
            raise ValueError("no latencies recorded")
        import bisect

        return bisect.bisect_right(self.latencies, slo_seconds) / len(self.latencies)

    def to_dict(self) -> Dict[str, object]:
        """Flat dict of the window's measurements (see
        :func:`repro.analysis.export.metrics_to_dict`)."""
        from ..analysis.export import metrics_to_dict

        return metrics_to_dict(self)

    @property
    def cache_hit_count(self) -> int:
        """Requests served by any cache tier inside the window."""
        return sum(self.cache_hits.values())

    @property
    def cache_hit_fraction(self) -> float:
        """Share of completed requests served by any cache tier."""
        return self.cache_hit_count / self.completed if self.completed else 0.0

    def span_mean(self, span: str) -> float:
        return self.span_means.get(span, 0.0)

    def span_fraction(self, span: str) -> float:
        return self.span_fractions.get(span, 0.0)

    @property
    def inference_fraction(self) -> float:
        """Share of latency spent in DNN inference (Fig. 4 bottom)."""
        return self.span_fraction("inference")

    @property
    def overhead_fraction(self) -> float:
        """Share of latency spent outside DNN inference."""
        return 1.0 - self.inference_fraction

    @property
    def attempted(self) -> int:
        """Successes plus failed attempts observed inside the window."""
        return self.completed + self.timeout_count + self.shed_count

    @property
    def success_fraction(self) -> float:
        """Fraction of attempts that completed within their deadline."""
        attempted = self.attempted
        if attempted == 0:
            return 1.0
        return self.completed / attempted


class MetricsCollector:
    """Accumulates completed requests inside a measurement window."""

    def __init__(self) -> None:
        self._armed = False
        self._window_start: Optional[float] = None
        self._window_end: Optional[float] = None
        self._requests: List[InferenceRequest] = []
        self.total_completed = 0  # including warm-up
        # Resilience counters: window-gated values feed RunMetrics, the
        # ``total_*`` twins count the whole run (including warm-up).
        self._timeouts = 0
        self._retries = 0
        self._shed = 0
        self.total_timeouts = 0
        self.total_retries = 0
        self.total_shed = 0

    def arm(self, now: float) -> None:
        """Open the measurement window."""
        self._armed = True
        self._window_start = now

    def disarm(self, now: float) -> None:
        """Close the measurement window."""
        self._armed = False
        self._window_end = now

    @property
    def armed(self) -> bool:
        return self._armed

    @property
    def sample_count(self) -> int:
        return len(self._requests)

    def record(self, request: InferenceRequest) -> None:
        """Feed one completed request (counted only while armed).

        Requests that missed their deadline count as timeouts, not as
        latency samples — a late answer is a failed answer under an SLO.
        """
        if request.completion_time is None:
            raise ValueError("request has not completed")
        self.total_completed += 1
        if request.outcome != OUTCOME_OK:
            self.total_timeouts += 1
            if self._armed:
                self._timeouts += 1
            return
        if self._armed:
            self._requests.append(request)

    def note_retry(self) -> None:
        """Record one retry attempt by a load balancer."""
        self.total_retries += 1
        if self._armed:
            self._retries += 1

    def note_shed(self) -> None:
        """Record one request rejected by admission control."""
        self.total_shed += 1
        if self._armed:
            self._shed += 1

    def register_metrics(self, registry) -> None:
        """Publish run-global counters as registry views."""
        registry.counter_fn(
            "repro_requests_completed_total",
            "Requests completed, including warm-up",
            lambda: self.total_completed,
        )
        registry.counter_fn(
            "repro_requests_timeout_total",
            "Requests that missed their deadline",
            lambda: self.total_timeouts,
        )
        registry.counter_fn(
            "repro_requests_retry_total",
            "Retry attempts issued by load balancers",
            lambda: self.total_retries,
        )
        registry.counter_fn(
            "repro_requests_shed_total",
            "Requests rejected by admission control",
            lambda: self.total_shed,
        )

    def finalize(self) -> RunMetrics:
        """Compute window metrics; requires an opened and closed window."""
        if self._window_start is None or self._window_end is None:
            raise RuntimeError("measurement window was not opened/closed")
        window = self._window_end - self._window_start
        if window <= 0:
            raise RuntimeError(f"empty measurement window ({window})")
        if not self._requests and not (self._timeouts or self._shed):
            raise RuntimeError("no requests completed inside the window")

        latencies = [r.latency for r in self._requests]
        # A window may legitimately contain zero successes under heavy
        # fault injection; report zero goodput rather than crash.
        stats = LatencyStats.from_values(latencies) if latencies else LatencyStats.empty()
        sample_count = max(1, len(self._requests))

        span_means: Dict[str, float] = {}
        for span in ALL_SPANS:
            total = float_sum(r.spans.get(span, 0.0) for r in self._requests)
            span_means[span] = total / sample_count
        # Any non-canonical spans (e.g. broker) are preserved too.
        extra_spans = {
            span
            for request in self._requests
            for span in request.spans
            if span not in ALL_SPANS
        }
        for span in sorted(extra_spans):
            total = float_sum(r.spans.get(span, 0.0) for r in self._requests)
            span_means[span] = total / sample_count

        mean_latency = stats.mean
        span_fractions = {
            span: (value / mean_latency if mean_latency > 0 else 0.0)
            for span, value in span_means.items()
        }

        batch_sizes = [r.batch_size for r in self._requests if r.batch_size]
        mean_batch = sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0

        cache_hits: Dict[str, int] = {}
        for request in self._requests:
            tier = getattr(request, "served_from", None)
            if tier is not None:
                cache_hits[tier] = cache_hits.get(tier, 0) + 1

        # Per-phase completion counts ride in extras only when the load
        # generator stamped phases — closed-loop and constant-rate runs
        # keep empty extras (and therefore byte-identical exports).
        phase_counts: Dict[str, int] = {}
        for request in self._requests:
            phase = getattr(request, "workload_phase", None)
            if phase is not None:
                phase_counts[phase] = phase_counts.get(phase, 0) + 1
        extras = {
            f"workload_phase_{name}": float(count)
            for name, count in sorted(phase_counts.items())
        }

        return RunMetrics(
            extras=extras,
            window_seconds=window,
            completed=len(self._requests),
            throughput=len(self._requests) / window,
            latency=stats,
            span_means=span_means,
            span_fractions=span_fractions,
            mean_batch_size=mean_batch,
            eviction_count=sum(r.eviction_count for r in self._requests),
            latencies=tuple(sorted(latencies)),
            timeout_count=self._timeouts,
            retry_count=self._retries,
            shed_count=self._shed,
            cache_hits=cache_hits,
        )
