"""MetricsScraper tests: sampling, recording rules, alerts, parity.

The scraper is a kernel process, so the identical code path samples in
virtual time under the DES and in wall time under an
``AsyncioBackend``; ``fast_forward`` dispatches in exact DES order,
which must make the sampled series *byte-identical* across backends.
And like every telemetry component it is observer-neutral: enabling it
never changes ``RunMetrics``.
"""

from pathlib import Path

import pytest

from repro import ExperimentConfig, run_experiment
from repro.core.config import ServerConfig
from repro.kernel import AsyncioBackend
from repro.live import replay_trace
from repro.serving.runner import run_open_loop
from repro.telemetry import AlertRule, SloConfig, TelemetryConfig
from repro.telemetry.scraper import MetricsScraper
from repro.telemetry.registry import MetricsRegistry
from repro.sim import Environment
from repro.vision import reference_dataset
from repro.workload import Workload

GOLDEN_TRACE = str(
    Path(__file__).parent.parent / "workload" / "golden" / "day.jsonl.gz"
)

SCRAPED = TelemetryConfig(
    enabled=True,
    trace=False,
    slo=SloConfig(latency_objective_seconds=0.2),
    scrape_interval_seconds=0.05,
    history_points=256,
)


def _config(**overrides):
    defaults = dict(
        server=ServerConfig(model="tinyvit-5m", preprocess_device="gpu"),
        concurrency=8,
        warmup_requests=10,
        measure_requests=60,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _replay_config(telemetry=None):
    """The deployment `repro serve --replay --model tinyvit-5m
    --requests 60 --max-seconds 12000` replays."""
    return ExperimentConfig(
        server=ServerConfig(model="tinyvit-5m", preprocess_device="gpu",
                            preprocess_batch_size=64),
        dataset=reference_dataset("medium"),
        warmup_requests=0,
        measure_requests=60,
        max_sim_seconds=12000.0,
        telemetry=telemetry,
    )


class TestScraperUnit:
    def test_interval_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            MetricsScraper(env, MetricsRegistry(), interval=0)

    def test_counter_rate_recording_rule(self):
        env = Environment()
        registry = MetricsRegistry()
        counter = registry.counter("widgets_total", "widgets")
        scraper = MetricsScraper(env, registry, interval=1.0)
        scraper.start()

        def load():
            for _ in range(4):
                counter.inc(5)
                yield env.timeout(1.0)

        env.process(load())
        env.run(until=3.5)
        rate = scraper.store.get("widgets_total:rate")
        # Window rate = increase / interval; 5 widgets per 1 s tick.
        assert rate.values[-1] == pytest.approx(5.0)
        raw = scraper.store.get("widgets_total")
        assert raw.values[-1] >= 10

    def test_alert_fires_after_hold_and_clears(self):
        env = Environment()
        registry = MetricsRegistry()
        depth = {"value": 0.0}
        registry.gauge_fn("depth", "queue depth", lambda: depth["value"])
        rule = AlertRule(name="deep", series="depth", threshold=10.0,
                         for_seconds=2.0)
        scraper = MetricsScraper(env, registry, interval=1.0, alerts=[rule])
        scraper.start()

        def drive():
            depth["value"] = 50.0
            yield env.timeout(5.0)
            depth["value"] = 0.0
            yield env.timeout(3.0)

        env.process(drive())
        env.run(until=8.5)
        series = scraper.store.get("alert:deep")
        values = list(series.values)
        assert 1.0 in values  # fired after the 2 s hold
        assert values[0] == 0.0  # not before breaching long enough
        assert values[-1] == 0.0  # cleared when the gauge recovered
        states = [entry["state"] for entry in scraper.alert_log]
        assert states == ["firing", "resolved"]

    def test_stop_start_never_double_samples(self):
        env = Environment()
        registry = MetricsRegistry()
        registry.counter("c_total", "c")
        scraper = MetricsScraper(env, registry, interval=1.0)
        scraper.start()
        env.run(until=2.5)
        scraper.stop()
        scraper.start()
        env.run(until=5.5)
        times = list(scraper.store.get("c_total").times)
        assert times == sorted(set(times))


class TestScraperInRuns:
    def test_scraper_samples_a_des_run(self):
        result = run_experiment(_config(telemetry=SCRAPED))
        session = result.telemetry
        assert session.scraper is not None
        assert session.scraper.samples_taken > 0
        store = session.store
        assert "repro_requests_completed_total:rate" in store.names
        assert "repro_request_latency_seconds:p99" in store.names
        assert "repro_slo_burn_rate" in store.names
        # The closing scrape pins the final counter value.
        total = store.get("repro_requests_completed_total")
        assert total.values[-1] == float(result.metrics.completed
                                         + _config().warmup_requests)

    def test_scraper_is_observer_neutral(self):
        base = run_experiment(_config())
        scraped = run_experiment(_config(telemetry=SCRAPED))
        assert scraped.metrics == base.metrics

    def test_virtual_vs_fast_forward_series_byte_identical(self):
        workload = Workload.constant(400.0)

        def run(backend=None):
            return run_open_loop(
                _config(measure_requests=120, telemetry=SCRAPED),
                workload=workload,
                backend=backend,
            )

        sim = run()
        live = run(AsyncioBackend(fast_forward=True))
        assert sim.metrics == live.metrics
        assert sim.telemetry.store.to_jsonl() == live.telemetry.store.to_jsonl()
        assert (sim.telemetry.store.to_openmetrics()
                == live.telemetry.store.to_openmetrics())


class TestGoldenTraceScrape:
    def test_golden_replay_with_telemetry_keeps_exact_parity(self):
        report = replay_trace(
            GOLDEN_TRACE,
            _replay_config(SCRAPED.with_overrides(scrape_interval_seconds=60.0)),
            fast_forward=True,
        )
        sim, live = report.sim, report.live
        assert sim.metrics == live.metrics
        assert sim.metrics.completed > 0
        # The scraped history agrees byte for byte across the clocks.
        assert (sim.telemetry.store.to_jsonl()
                == live.telemetry.store.to_jsonl())

    def test_ticks_take_no_registry_snapshot(self, monkeypatch):
        # The scraper reads instruments through its plan; the one
        # snapshot of the run is the closing session.snapshot().
        taken = []
        snapshot = MetricsRegistry.snapshot

        def counting_snapshot(registry, at_time=None):
            taken.append(at_time)
            return snapshot(registry, at_time)

        monkeypatch.setattr(MetricsRegistry, "snapshot", counting_snapshot)
        result = run_open_loop(
            _config(
                max_sim_seconds=12000.0,
                telemetry=SCRAPED.with_overrides(scrape_interval_seconds=60.0),
            ),
            workload=Workload.replay(GOLDEN_TRACE),
        )
        session = result.telemetry
        assert session.scraper.samples_taken > 100
        assert taken == [session.finalized_at]

    def test_golden_replay_telemetry_is_observer_neutral(self):
        bare = replay_trace(GOLDEN_TRACE, _replay_config(), fast_forward=True)
        scraped = replay_trace(
            GOLDEN_TRACE,
            _replay_config(SCRAPED.with_overrides(scrape_interval_seconds=60.0)),
            fast_forward=True,
        )
        assert scraped.sim.metrics == bare.sim.metrics
        assert scraped.live.metrics == bare.live.metrics
