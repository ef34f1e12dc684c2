"""One run's telemetry: registry + tracer + SLO tracker + scraper.

A :class:`TelemetrySession` is created by the experiment runners when
``TelemetryConfig.enabled`` is set, attached to the serving components
(which publish callback-backed registry views and hand the tracer to
every submitted request), and returned on the result object for export.

Everything the session does is observational: instruments read live
counters at collection time, the tracer only appends to request-local
lists, and the SLO tracker consumes completion events the runner already
receives — so an enabled session leaves ``RunMetrics`` bit-identical to
a telemetry-free run (asserted by the benchmark suite).  The one
deliberate exception is the optional
:class:`~repro.telemetry.scraper.MetricsScraper`, which schedules its
cadence wake-ups; sampling draws no randomness and mutates no component
state, so results are unchanged.
"""

from __future__ import annotations

from typing import List, Optional

from .config import TelemetryConfig
from .registry import MetricsRegistry, RegistrySnapshot
from .slo import SloReport, SloTracker
from .timeseries import SeriesBuffer
from .tracer import Tracer

__all__ = ["TelemetrySession"]


class TelemetrySession:
    """Live telemetry state for one experiment run."""

    def __init__(self, config: TelemetryConfig, env=None) -> None:
        config.validate()
        self.config = config
        self.env = env
        self.registry = MetricsRegistry()
        self.tracer: Optional[Tracer] = None
        if config.trace:
            self.tracer = Tracer(
                limit=config.trace_limit, sample_every=config.trace_sample_every
            )
            self.tracer.register_metrics(self.registry)
        self.slo: Optional[SloTracker] = None
        if config.slo is not None:
            self.slo = SloTracker(config.slo)
            self.slo.register_metrics(self.registry)
        self.scraper = None
        if env is not None and config.scrape_interval_seconds is not None:
            from .scraper import MetricsScraper

            self.scraper = MetricsScraper(
                env,
                self.registry,
                interval=config.scrape_interval_seconds,
                capacity=config.history_points,
                slo=self.slo,
                alerts=config.alerts,
            )
        self.latency = self.registry.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency (all completions, incl. warm-up)",
        )
        #: Windowed snapshots taken via :meth:`snapshot`, in time order.
        self.snapshots: List[RegistrySnapshot] = []
        #: Simulation time :meth:`finalize` ran at (``None`` while live).
        self.finalized_at: Optional[float] = None

    def __repr__(self) -> str:
        parts = [f"metrics={len(self.registry)}"]
        if self.tracer is not None:
            parts.append(f"traced={len(self.tracer.requests)}")
        if self.slo is not None:
            parts.append(f"slo_total={self.slo.total}")
        return f"<TelemetrySession {' '.join(parts)}>"

    # -- wiring ---------------------------------------------------------------

    def attach_server(self, server) -> None:
        """Wire an :class:`~repro.core.server.InferenceServer`, a
        :class:`~repro.apps.face_pipeline.FacePipeline`, or any component
        with ``tracer``/``register_metrics``."""
        server.tracer = self.tracer
        server.register_metrics(self.registry)

    def start(self) -> None:
        """Begin scraper sampling (no-op without a scraper)."""
        if self.scraper is not None:
            self.scraper.start()

    # -- completion stream ----------------------------------------------------

    def observe_completion(self, request, now: float) -> None:
        """Feed one completed request into the latency histogram + SLO.

        A request carrying a distributed
        :class:`~repro.telemetry.context.TraceContext` additionally pins
        its trace id as the exemplar of the latency bucket it lands in.
        """
        latency = now - request.arrival_time
        trace = getattr(request, "trace", None)
        if trace is not None:
            self.latency.observe(latency, exemplar=trace.trace_id, exemplar_time=now)
        else:
            self.latency.observe(latency)
        if self.slo is not None:
            ok = getattr(request, "outcome", "ok") == "ok"
            self.slo.observe(latency, now, ok=ok)

    # -- collection ------------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> RegistrySnapshot:
        """Take (and retain) a point-in-time registry snapshot."""
        snap = self.registry.snapshot(at_time=now)
        self.snapshots.append(snap)
        return snap

    def finalize(self, now: Optional[float] = None) -> "TelemetrySession":
        """End-of-run housekeeping: stop sampling, surface trace drops."""
        if self.scraper is not None:
            self.scraper.stop()
            # One closing sample so the store's tail reflects the final
            # state even when the run ends mid-cadence.
            self.scraper.scrape()
        if self.tracer is not None:
            self.tracer.warn_if_dropped()
        self.finalized_at = now
        self.snapshot(now)
        return self

    def slo_report(self, now: Optional[float] = None) -> Optional[SloReport]:
        """The SLO summary, or ``None`` when no objective was configured.

        ``now`` defaults to the time :meth:`finalize` ran at.
        """
        if self.slo is None:
            return None
        if now is None:
            now = self.finalized_at if self.finalized_at is not None else 0.0
        return self.slo.report(now)

    def prometheus_text(self) -> str:
        return self.registry.to_prometheus_text()

    def json_metrics(self, indent: int = 2) -> str:
        return self.registry.to_json(indent=indent)

    @property
    def store(self):
        """The scraper's time-series store, or ``None`` with no scraper."""
        return self.scraper.store if self.scraper is not None else None

    @property
    def gauges(self) -> List[SeriesBuffer]:
        """The scraped series of every registry gauge child, in registry
        order (the trace's counter tracks); empty with no scraper."""
        if self.scraper is None:
            return []
        store = self.scraper.store
        return [
            buffer
            for name in self.registry.names
            if self.registry.family(name).kind == "gauge"
            for buffer in store.select(name)
        ]

    def history_dict(self, since: Optional[float] = None) -> Optional[dict]:
        """The time-series history payload (``/metrics/history``)."""
        if self.scraper is None:
            return None
        return self.scraper.store.to_dict(since=since)

    def write_timeseries(self, path: str) -> int:
        """Export the store as JSONL; returns the series count."""
        if self.scraper is None:
            raise RuntimeError("no scraper configured (scrape_interval_seconds)")
        self.scraper.store.to_jsonl(path)
        return len(self.scraper.store)

    def write_trace(self, path: str) -> int:
        """Export the Perfetto timeline trace; returns the event count."""
        if self.tracer is None:
            raise RuntimeError("tracing is disabled in this TelemetryConfig")
        from ..analysis.tracing import write_perfetto_trace

        return write_perfetto_trace(path, self.tracer.requests, gauges=self.gauges)
