"""Telemetry configuration.

Telemetry is **off by default** and strictly observational: enabling it
must never change simulation results (no extra RNG draws, no event-loop
interaction beyond the optional scraper's cadence wake-ups, no mutation
of any component state).  The benchmark suite asserts both properties —
off-path runs are bit-identical to pre-telemetry builds, and enabled
runs produce bit-identical ``RunMetrics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .slo import SloConfig
from .timeseries import AlertRule

__all__ = ["TelemetryConfig", "SloConfig", "AlertRule"]


@dataclass(frozen=True, kw_only=True)
class TelemetryConfig:
    """What a run should record.

    Attributes:
        enabled: Master switch; when False the stack records nothing.
        trace: Record per-request timestamped span timelines (enables
            Perfetto export with real overlap).
        trace_limit: Maximum number of requests to trace; beyond it the
            tracer counts drops instead of growing without bound.
        trace_sample_every: Trace every Nth submitted request (1 = all).
            Use for long runs where a representative sample suffices.
        slo: Latency objective to score completions against, or None.
        scrape_interval_seconds: Cadence of the
            :class:`~repro.telemetry.scraper.MetricsScraper` sampling
            every registry instrument into the ring-buffered
            time-series store (virtual seconds under the DES, wall
            seconds under a realtime backend), or None for no scraper.
            The scraped gauge series (queue depths, GPU memory, ...)
            become the trace's counter tracks.
        history_points: Ring capacity per time series (oldest evicted).
        alerts: Threshold :class:`~repro.telemetry.timeseries.AlertRule`
            rules the scraper evaluates each tick.
    """

    enabled: bool = False
    trace: bool = True
    trace_limit: int = 2000
    trace_sample_every: int = 1
    slo: Optional[SloConfig] = None
    scrape_interval_seconds: Optional[float] = None
    history_points: int = 720
    alerts: Tuple[AlertRule, ...] = field(default_factory=tuple)

    def validate(self) -> "TelemetryConfig":
        if self.trace_limit < 1:
            raise ValueError(f"trace_limit must be >= 1, got {self.trace_limit}")
        if self.trace_sample_every < 1:
            raise ValueError(
                f"trace_sample_every must be >= 1, got {self.trace_sample_every}"
            )
        if self.scrape_interval_seconds is not None and self.scrape_interval_seconds <= 0:
            raise ValueError(
                "scrape_interval_seconds must be positive, got "
                f"{self.scrape_interval_seconds}"
            )
        if self.history_points < 1:
            raise ValueError(
                f"history_points must be >= 1, got {self.history_points}"
            )
        for rule in self.alerts:
            rule.validate()
        if self.slo is not None:
            self.slo.validate()
        return self

    def with_overrides(self, **overrides) -> "TelemetryConfig":
        return replace(self, **overrides).validate()
