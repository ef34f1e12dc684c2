"""Sim-vs-live parity: the same workload through both backends.

The acceptance property of the clock-agnostic kernel: a recorded
workload driven through :class:`~repro.kernel.AsyncioBackend` in
``fast_forward`` mode produces the *same* ``RunMetrics`` as the
discrete-event backend — same completions, same latencies, same
batch-size histogram, same cache hits — because fast-forward dispatch
follows the identical (time, priority, insertion) order.  A second,
wall-clock test replays time-compressed with real sleeping and asserts
agreement within tolerance (counts exact, latency distortion bounded).
"""

from collections import Counter

import pytest

from repro.cache import CacheConfig
from repro.core.config import ServerConfig
from repro.kernel import AsyncioBackend
from repro.live import replay_trace
from repro.serving.runner import ExperimentConfig, run_experiment, run_open_loop
from repro.vision import ImageNetLikeDataset, ZipfDataset, reference_dataset
from repro.workload import Workload

GOLDEN_TRACE = "tests/workload/golden/day.jsonl.gz"

MIB = 1 << 20


def _config(on_complete=None, cache=None, measure=200, dataset=None):
    return ExperimentConfig(
        server=ServerConfig(model="tinyvit-5m", preprocess_device="gpu",
                            cache=cache),
        dataset=dataset,
        concurrency=48,
        warmup_requests=50,
        measure_requests=measure,
        seed=11,
        max_sim_seconds=120.0,
        on_complete=on_complete,
    )


def _replay_config(measure, max_sim_seconds):
    """The deployment `repro serve --replay --model tinyvit-5m` replays."""
    return ExperimentConfig(
        server=ServerConfig(model="tinyvit-5m", preprocess_device="gpu",
                            preprocess_batch_size=64),
        dataset=reference_dataset("medium"),
        warmup_requests=0,
        measure_requests=measure,
        max_sim_seconds=max_sim_seconds,
    )


class TestGoldenTraceParity:
    """The pinned 24h trace through both clocks (time-compressed)."""

    def test_fast_forward_replay_is_exact(self):
        report = replay_trace(
            GOLDEN_TRACE,
            _replay_config(measure=60, max_sim_seconds=12000.0),
            fast_forward=True,
        )
        assert report.exact_parity_expected
        sim, live = report.sim.metrics, report.live.metrics
        assert sim.completed == live.completed > 0
        assert sim.latencies == live.latencies
        assert sim.latency == live.latency
        assert sim.mean_batch_size == live.mean_batch_size
        assert sim.cache_hits == live.cache_hits
        assert sim.extras == live.extras

    def test_compressed_wall_clock_replay_within_tolerance(self):
        """Real sleeping (aggressively compressed): counts must match
        exactly; wall-clock jitter may only inflate latencies, and not
        unrecognizably."""
        report = replay_trace(
            GOLDEN_TRACE,
            _replay_config(measure=25, max_sim_seconds=5000.0),
            time_scale=2000.0,
        )
        sim, live = report.sim.metrics, report.live.metrics
        assert sim.completed == live.completed > 0
        # Arrivals are sparse at this rate: batch formation must agree.
        assert live.mean_batch_size == pytest.approx(sim.mean_batch_size)
        assert sim.cache_hits == live.cache_hits
        # Wall jitter adds latency, never removes it; at x2000 the added
        # milliseconds of wall time are bounded by seconds of virtual
        # time.  Generous ceiling: mean within 50x (sim mean is ~4ms).
        assert live.latency.mean >= sim.latency.mean * 0.99
        assert live.latency.mean < sim.latency.mean + 2000.0 * 0.05


class TestClosedLoopParity:
    """High-concurrency closed loop: real batching, caches, backpressure."""

    def test_batch_histogram_and_cache_hits_match(self):
        def run(backend=None):
            batch_sizes = Counter()

            def observe(request):
                if request.batch_size:
                    batch_sizes[request.batch_size] += 1

            cache = CacheConfig(image_cache_bytes=64 * MIB,
                                tensor_cache_bytes=64 * MIB)
            config = _config(
                on_complete=observe,
                cache=cache,
                dataset=ZipfDataset(ImageNetLikeDataset(),
                                    catalog_size=64, skew=1.1),
            )
            result = run_experiment(config, backend=backend)
            return result, batch_sizes

        sim_result, sim_hist = run()
        live_result, live_hist = run(AsyncioBackend(fast_forward=True))

        sim, live = sim_result.metrics, live_result.metrics
        assert sim.completed == live.completed > 0
        assert sim_hist == live_hist
        assert sum(sim_hist.values()) > 0
        assert sim.latencies == live.latencies
        assert sim.cache_hits == live.cache_hits
        assert sim_result.energy == live_result.energy
        assert sim_result.cpu_utilization == live_result.cpu_utilization

    def test_open_loop_workload_parity(self):
        workload = Workload.constant(400.0)

        def run(backend=None):
            return run_open_loop(
                _config(measure=150), workload=workload, backend=backend
            )

        sim = run().metrics
        live = run(AsyncioBackend(fast_forward=True)).metrics
        assert sim.completed == live.completed > 0
        assert sim.latencies == live.latencies
        assert sim.mean_batch_size == live.mean_batch_size
