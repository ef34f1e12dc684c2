"""Tracer and TelemetrySession tests: sampling, limits, wiring."""

import warnings

import pytest

from repro import ExperimentConfig, run_experiment
from repro.core.request import InferenceRequest
from repro.telemetry import SloConfig, TelemetryConfig, TelemetrySession, Tracer
from repro.vision import MEDIUM_IMAGE


def make_request(arrival: float = 0.0) -> InferenceRequest:
    return InferenceRequest(MEDIUM_IMAGE, arrival_time=arrival)


class TestTracer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(limit=0)
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_register_arms_timeline(self):
        tracer = Tracer()
        request = make_request()
        assert request.timeline is None
        assert tracer.register(request)
        assert request.timeline == []
        assert tracer.requests == [request]

    def test_sample_every_keeps_every_nth(self):
        tracer = Tracer(sample_every=3)
        admitted = [tracer.register(make_request()) for _ in range(9)]
        assert admitted == [True, False, False] * 3
        assert tracer.skipped == 6
        assert tracer.offered == 9

    def test_limit_counts_drops(self):
        tracer = Tracer(limit=2)
        results = [tracer.register(make_request()) for _ in range(5)]
        assert results == [True, True, False, False, False]
        assert tracer.dropped == 3
        assert len(tracer.requests) == 2

    def test_warn_if_dropped(self):
        tracer = Tracer(limit=1)
        tracer.register(make_request())
        tracer.register(make_request())
        with pytest.warns(UserWarning, match="trace limit 1 reached"):
            tracer.warn_if_dropped()

    def test_no_warning_without_drops(self):
        tracer = Tracer()
        tracer.register(make_request())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracer.warn_if_dropped()

    def test_span_trees(self):
        tracer = Tracer()
        request = make_request()
        tracer.register(request)
        request.begin("queue", 1.0)
        request.end("queue", 2.0)
        request.complete(2.0)
        (tree,) = tracer.span_trees()
        assert [node.name for node in tree.walk()] == ["request", "queue"]

    def test_register_metrics_views(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer(limit=1)
        tracer.register_metrics(registry)
        tracer.register(make_request())
        tracer.register(make_request())
        snap = registry.snapshot()
        assert snap.metric("repro_trace_requests_total")["samples"][0]["value"] == 1
        assert snap.metric("repro_trace_dropped_total")["samples"][0]["value"] == 1


class TestTelemetrySession:
    def test_disabled_config_opens_no_session(self):
        from repro.serving.runner import _open_session

        assert _open_session(None, None) is None
        assert _open_session(TelemetryConfig(), None) is None
        assert _open_session(TelemetryConfig(enabled=True), None) is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(trace_limit=0).validate()
        with pytest.raises(ValueError):
            TelemetryConfig(trace_sample_every=0).validate()
        with pytest.raises(ValueError):
            TelemetryConfig(scrape_interval_seconds=0.0).validate()

    def test_observe_completion_feeds_latency_and_slo(self):
        session = TelemetrySession(
            TelemetryConfig(enabled=True, slo=SloConfig(latency_objective_seconds=0.1))
        )
        request = make_request(arrival=1.0)
        request.complete(1.05)
        session.observe_completion(request, 1.05)
        slow = make_request(arrival=1.0)
        slow.complete(2.0)
        session.observe_completion(slow, 2.0)
        assert session.latency.count == 2
        assert session.slo.total == 2
        assert session.slo.good == 1

    def test_finalize_stamps_time_and_snapshots(self):
        session = TelemetrySession(TelemetryConfig(enabled=True))
        session.finalize(12.5)
        assert session.finalized_at == 12.5
        assert session.snapshots[-1].at_time == 12.5

    def test_write_trace_requires_tracing(self, tmp_path):
        session = TelemetrySession(TelemetryConfig(enabled=True, trace=False))
        with pytest.raises(RuntimeError, match="tracing is disabled"):
            session.write_trace(str(tmp_path / "x.json"))


class TestRunnerIntegration:
    CONFIG = dict(concurrency=8, warmup_requests=10, measure_requests=60)

    def test_run_without_telemetry_has_none(self):
        result = run_experiment(ExperimentConfig(**self.CONFIG))
        assert result.telemetry is None

    def test_enabled_telemetry_is_observer_neutral(self):
        base = run_experiment(ExperimentConfig(**self.CONFIG))
        traced = run_experiment(
            ExperimentConfig(
                **self.CONFIG,
                telemetry=TelemetryConfig(
                    enabled=True,
                    slo=SloConfig(),
                    scrape_interval_seconds=0.005,
                ),
            )
        )
        assert traced.metrics == base.metrics
        session = traced.telemetry
        assert session is not None
        assert len(session.tracer.requests) > 0
        assert session.slo.total > 0
        assert session.finalized_at is not None
        # The scraper sampled the server's gauges.
        assert len(session.store.get("repro_batch_queue_depth", {"gpu": "0"})) > 0
        # The registry exposes server counters that match RunMetrics.
        snap = session.snapshots[-1]
        completed = snap.metric("repro_requests_completed_total")
        assert completed["samples"][0]["value"] >= base.metrics.completed

    def test_trace_sampling_config_respected(self):
        result = run_experiment(
            ExperimentConfig(
                **self.CONFIG,
                telemetry=TelemetryConfig(enabled=True, trace_sample_every=4),
            )
        )
        tracer = result.telemetry.tracer
        assert tracer.skipped > 0
        assert len(tracer.requests) < tracer.offered

    def test_trace_limit_warns_at_finalize(self):
        with pytest.warns(UserWarning, match="trace limit"):
            run_experiment(
                ExperimentConfig(
                    **self.CONFIG,
                    telemetry=TelemetryConfig(enabled=True, trace_limit=5),
                )
            )
