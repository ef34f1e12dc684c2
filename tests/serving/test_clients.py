"""Tests for closed-loop / open-loop clients and the experiment runner."""

import pytest

from repro.core import MetricsCollector, ServerConfig
from repro.serving import (
    ClosedLoopClient,
    ExperimentConfig,
    WorkloadClient,
    run_experiment,
)
from repro.core.server import InferenceServer
from repro.hardware import ServerNode
from repro.sim import Environment, RandomStreams
from repro.vision import reference_dataset
from repro.workload import Workload


class TestClosedLoopClient:
    def test_validation(self):
        env = Environment()
        node = ServerNode(env)
        server = InferenceServer(env, node, ServerConfig())
        with pytest.raises(ValueError):
            ClosedLoopClient(env, server, reference_dataset("medium"), 0, RandomStreams(0))
        with pytest.raises(ValueError):
            ClosedLoopClient(
                env, server, reference_dataset("medium"), 1, RandomStreams(0),
                think_time_seconds=-1,
            )

    def test_maintains_concurrency(self):
        env = Environment()
        node = ServerNode(env)
        server = InferenceServer(env, node, ServerConfig())
        client = ClosedLoopClient(env, server, reference_dataset("medium"), 8, RandomStreams(0))
        env.run(until=0.5)
        completed = server.metrics.total_completed
        # In flight at any time == concurrency.
        assert client.issued - completed == 8

    def test_stop_halts_new_requests(self):
        env = Environment()
        node = ServerNode(env)
        server = InferenceServer(env, node, ServerConfig())
        client = ClosedLoopClient(env, server, reference_dataset("medium"), 4, RandomStreams(0))
        env.run(until=0.2)
        client.stop()
        issued = client.issued
        env.run(until=0.6)
        assert client.issued <= issued + 4  # only in-flight ones finish


def _start_open_loop(workload, config, on_complete=None):
    env = Environment()
    node = ServerNode(env)
    collector = MetricsCollector()
    collector.arm(0.0)
    server = InferenceServer(env, node, config, metrics=collector)
    source = workload.source(RandomStreams(0),
                             default_dataset=reference_dataset("medium"))
    client = WorkloadClient(env, server, source, on_complete=on_complete)
    return env, client, collector


class TestOpenLoopClient:
    """Constant-rate open-loop load on the default server configuration."""

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            Workload.constant(0)

    def test_offered_rate_approximately_respected(self):
        env, client, _ = _start_open_loop(Workload.constant(500.0), ServerConfig())
        env.run(until=2.0)
        assert client.issued == pytest.approx(1000, rel=0.2)

    def test_completion_callback(self):
        seen = []
        env, _, _ = _start_open_loop(Workload.constant(200.0), ServerConfig(),
                                     on_complete=seen.append)
        env.run(until=1.0)
        assert len(seen) > 50
        assert all(r.completion_time is not None for r in seen)


class TestWorkloadClient:
    @staticmethod
    def _start(workload, on_complete=None):
        return _start_open_loop(
            workload, ServerConfig(model="resnet-50", preprocess_batch_size=64),
            on_complete=on_complete,
        )

    def _run(self, workload, seconds=2.0):
        env, client, collector = self._start(workload)
        env.run(until=seconds)
        collector.disarm(env.now)
        return client, collector

    def test_rate_respected(self):
        client, _ = self._run(Workload.constant(500.0))
        assert client.issued == pytest.approx(1000, rel=0.2)

    def test_bursts_issue_more_requests(self):
        workload = Workload.flash_crowd(200.0, bursts=[(1.0, 0.25, 10.0)])
        client, _ = self._run(workload, seconds=2.5)
        base, _ = self._run(Workload.constant(200.0), seconds=2.5)
        expected = workload.arrivals.mean_rate(2.5) * 2.5  # 950 requests
        assert client.issued == pytest.approx(expected, rel=0.3)
        assert client.issued > 1.5 * base.issued

    def test_stop_halts_new_requests(self):
        env, client, _ = self._start(Workload.constant(100.0))
        env.run(until=0.5)
        client.stop()
        issued = client.issued
        env.run(until=1.5)
        assert client.issued <= issued + 1

    def test_deterministic_under_fixed_seed(self):
        counts = []
        for _ in range(2):
            client, collector = self._run(Workload.constant(300.0), seconds=1.0)
            counts.append((client.issued, collector.total_completed))
        assert counts[0] == counts[1]

    def test_completion_callback(self):
        seen = []
        env, _, _ = self._start(Workload.constant(200.0), on_complete=seen.append)
        env.run(until=1.0)
        assert len(seen) > 50
        assert all(r.completion_time is not None for r in seen)


class TestRunner:
    def test_run_result_fields(self):
        result = run_experiment(
            ExperimentConfig(concurrency=16, warmup_requests=30, measure_requests=150)
        )
        assert result.throughput > 0
        assert result.mean_latency > 0
        assert result.p99_latency >= result.mean_latency * 0.5
        assert result.cpu_joules_per_image > 0
        assert result.gpu_joules_per_image > 0
        assert result.joules_per_image == pytest.approx(
            result.cpu_joules_per_image + result.gpu_joules_per_image
        )
        assert 0 <= result.cpu_utilization <= 1
        assert 0 <= result.gpu_utilization <= 1

    def test_energy_window_excludes_warmup(self):
        """Warm-up traffic must not inflate per-image energy."""
        short = run_experiment(
            ExperimentConfig(concurrency=16, warmup_requests=20, measure_requests=200)
        )
        long = run_experiment(
            ExperimentConfig(concurrency=16, warmup_requests=400, measure_requests=200)
        )
        assert short.joules_per_image == pytest.approx(long.joules_per_image, rel=0.1)

    def test_config_with(self):
        config = ExperimentConfig()
        assert config.with_overrides(concurrency=99).concurrency == 99
        assert config.concurrency == 64
