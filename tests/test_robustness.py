"""Failure-injection and robustness tests.

The simulator must fail loudly and informatively — mis-configured
experiments, impossible allocations, and dead processes should raise
clear errors rather than hang or silently corrupt results.
"""

import pytest

from repro.core import InferenceServer, MetricsCollector, ServerConfig
from repro.hardware import DEFAULT_CALIBRATION, OutOfMemoryError, ServerNode
from repro.hardware.calibration import GpuCalibration
from repro.serving import ExperimentConfig, run_experiment
from repro.sim import Environment
from repro.vision import MEDIUM_IMAGE, reference_dataset
from repro.workload import Workload


class TestMisconfiguredExperiments:
    def test_timeout_with_no_completions_raises_clearly(self):
        """A window that closes with zero samples must say so."""
        config = ExperimentConfig(
            concurrency=1,
            warmup_requests=10_000_000,  # unreachable
            measure_requests=1,
            # Shorter than a single request's latency: the measurement
            # window opens and closes with zero completions.
            max_sim_seconds=0.002,
        )
        with pytest.raises(RuntimeError, match="no requests completed"):
            run_experiment(config)

    def test_unknown_model_fails_at_construction(self):
        env = Environment()
        node = ServerNode(env)
        with pytest.raises(KeyError, match="known models"):
            InferenceServer(env, node, ServerConfig(model="gpt-4v"))

    def test_unknown_runtime_fails_at_construction(self):
        env = Environment()
        node = ServerNode(env)
        with pytest.raises(KeyError, match="known runtimes"):
            InferenceServer(env, node, ServerConfig(runtime="tvm"))


class TestMemoryExhaustion:
    def test_model_working_set_larger_than_pool_raises(self):
        """A pool smaller than one request's working set is fatal, not a
        hang: the OOM escalates out of run()."""
        tiny_gpu = GpuCalibration(
            memory_bytes=4.001 * 1024**3,
            reserved_bytes=4 * 1024**3,  # ~1 MiB usable
        )
        calibration = DEFAULT_CALIBRATION.with_overrides(gpu=tiny_gpu)
        env = Environment()
        node = ServerNode(env, calibration)
        server = InferenceServer(
            env, node, ServerConfig(preprocess_device="gpu")
        )
        server.submit(MEDIUM_IMAGE)
        with pytest.raises(OutOfMemoryError):
            env.run(until=1.0)


class TestInterruptedClients:
    def test_interrupting_a_waiting_client_does_not_corrupt_server(self):
        """A client that stops waiting mid-request leaves the server
        consistent: the in-flight request still completes and is
        recorded."""
        env = Environment()
        node = ServerNode(env)
        collector = MetricsCollector()
        collector.arm(0.0)
        server = InferenceServer(env, node, ServerConfig(), metrics=collector)
        gave_up = []

        def client():
            done = server.submit(MEDIUM_IMAGE)
            yield done | env.timeout(0.001)
            # The client gave up; the server-side work is unaffected.
            gave_up.append(not done.triggered)

        env.process(client())
        env.run(until=1.0)
        assert gave_up == [True]
        assert collector.sample_count == 1  # request finished anyway

    def test_stopped_client_mid_burst(self):
        from repro.serving.client import ClosedLoopClient
        from repro.sim import RandomStreams

        env = Environment()
        node = ServerNode(env)
        collector = MetricsCollector()
        collector.arm(0.0)
        server = InferenceServer(env, node, ServerConfig(model="resnet-50"),
                                 metrics=collector)
        client = ClosedLoopClient(env, server, reference_dataset("medium"),
                                  16, RandomStreams(0))

        def stopper():
            yield env.timeout(0.05)
            client.stop()

        env.process(stopper())
        env.run(until=2.0)
        # Everything issued eventually completed; nothing leaked.
        assert collector.total_completed == client.issued


class TestOverloadBehaviour:
    def test_server_survives_10x_overload_burst(self):
        """An open-loop burst far above capacity queues without error
        and drains afterwards."""
        from repro.serving import run_open_loop

        result = run_open_loop(
            ExperimentConfig(
                # CPU preprocessing: the overload backlog buffers in host
                # RAM (the Fig. 5 saturation regime) instead of thrashing
                # GPU memory, keeping the stress test fast.
                server=ServerConfig(model="resnet-50", preprocess_device="cpu",
                                    preprocess_batch_size=64),
                dataset=reference_dataset("medium"),
                warmup_requests=100,
                measure_requests=1000,
                max_sim_seconds=5.0,
            ),
            workload=Workload.constant(40_000),  # ~10x capacity
        )
        # Served throughput equals capacity, not the offered rate.
        assert 2000 < result.throughput < 9000
        # Latency reflects the unbounded queue, monotone percentiles hold.
        assert result.metrics.latency.p99 >= result.metrics.latency.p50

    def test_zero_queue_delay_still_serves(self):
        result = run_experiment(
            ExperimentConfig(
                server=ServerConfig(max_queue_delay_seconds=0.0),
                dataset=reference_dataset("medium"),
                concurrency=64,
                warmup_requests=50,
                measure_requests=300,
            )
        )
        assert result.throughput > 100

    def test_single_worker_single_instance_degenerate_config(self):
        result = run_experiment(
            ExperimentConfig(
                server=ServerConfig(
                    preprocess_device="cpu",
                    preprocess_workers=1,
                    inference_instances=1,
                    max_batch_size=1,
                    preprocess_pipelines=1,
                ),
                dataset=reference_dataset("medium"),
                concurrency=8,
                warmup_requests=20,
                measure_requests=100,
            )
        )
        assert result.throughput > 50
        assert result.metrics.mean_batch_size == pytest.approx(1.0)
