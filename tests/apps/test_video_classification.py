"""Tests for the video-classification serving pipeline."""

import pytest

from repro.apps import VideoClassificationServer, VideoServerConfig
from repro.core import MetricsCollector
from repro.hardware import ServerNode
from repro.serving import ExperimentConfig, run_experiment
from repro.serving.client import ClosedLoopClient
from repro.sim import Environment, RandomStreams
from repro.vision import VideoClipDataset


def serve_one_clip(config=None, duration=8.0):
    env = Environment()
    node = ServerNode(env)
    server = VideoClassificationServer(env, node, config or VideoServerConfig())
    ds = VideoClipDataset(mean_duration_seconds=duration)
    clip = ds.sample(RandomStreams(0).stream("v"))
    request = env.run(until=server.submit(clip))
    return request


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(ValueError):
            VideoServerConfig(frames_per_clip=0)
        with pytest.raises(ValueError):
            VideoServerConfig(decode_workers=0)
        with pytest.raises(ValueError):
            VideoServerConfig(max_queue_delay_seconds=-1)

    def test_with_overrides(self):
        config = VideoServerConfig(frames_per_clip=4)
        assert config.with_overrides(model="resnet-50").frames_per_clip == 4


class TestSingleClip:
    def test_clip_completes_with_spans(self):
        request = serve_one_clip()
        assert request.completion_time is not None
        for span in ("frontend", "preprocess", "inference", "postprocess"):
            assert span in request.spans

    def test_video_serving_is_preprocessing_dominated(self):
        """The paper's Sec. 1 motivation: video decode dwarfs the DNN."""
        request = serve_one_clip()
        assert request.spans["preprocess"] > 10 * request.spans["inference"]
        assert request.span_fraction("preprocess") > 0.8

    def test_more_frames_cost_more(self):
        few = serve_one_clip(VideoServerConfig(frames_per_clip=2))
        many = serve_one_clip(VideoServerConfig(frames_per_clip=16))
        assert many.latency > few.latency

    def test_longer_clips_cost_more(self):
        short = serve_one_clip(duration=4.0)
        long = serve_one_clip(duration=16.0)
        assert long.latency > short.latency


class TestThroughput:
    def test_closed_loop_serving(self):
        env = Environment()
        node = ServerNode(env)
        collector = MetricsCollector()
        state = {"n": 0}
        done_ev = env.event()

        def on_complete(_r):
            state["n"] += 1
            if state["n"] == 120:
                done_ev.succeed()

        server = VideoClassificationServer(
            env, node, VideoServerConfig(frames_per_clip=8),
            metrics=collector, on_complete=on_complete,
        )
        collector.arm(0.0)
        client = ClosedLoopClient(
            env, server, VideoClipDataset(mean_duration_seconds=4.0), 32, RandomStreams(0)
        )

        def ctrl():
            yield done_ev | env.timeout(120)
            collector.disarm(env.now)
            client.stop()

        env.run(until=env.process(ctrl()))
        metrics = collector.finalize()
        assert metrics.completed >= 100
        assert metrics.throughput > 10  # clips/s
        # Frames batch (within and across clips) on the GPU.
        assert metrics.mean_batch_size > 2


def _hand_written_protocol(frames_per_clip, clips=120):
    """The closed-loop video run spelled out: 32 clients, 60 warm-up
    clips, then ``clips`` measured, capped at 300 simulated seconds."""
    env = Environment()
    node = ServerNode(env)
    collector = MetricsCollector()
    done_ev = env.event()
    state = {"n": 0}

    def on_complete(_request):
        state["n"] += 1
        if state["n"] == clips + 60:
            done_ev.succeed()
        elif state["n"] == 60:
            collector.arm(env.now)

    server = VideoClassificationServer(
        env, node, VideoServerConfig(frames_per_clip=frames_per_clip),
        metrics=collector, on_complete=on_complete,
    )
    client = ClosedLoopClient(
        env, server, VideoClipDataset(mean_duration_seconds=6.0), 32, RandomStreams(0)
    )

    def ctrl():
        yield done_ev | env.timeout(300)
        collector.disarm(env.now)
        client.stop()

    env.run(until=env.process(ctrl()))
    return collector.finalize()


class TestRunExperiment:
    @pytest.mark.parametrize("frames", [4, 8, 16])
    def test_matches_the_hand_written_protocol(self, frames):
        result = run_experiment(ExperimentConfig(
            server=VideoServerConfig(frames_per_clip=frames),
            dataset=VideoClipDataset(mean_duration_seconds=6.0),
            concurrency=32,
            warmup_requests=60,
            measure_requests=120,
            max_sim_seconds=300.0,
        ))
        assert result.metrics.completed == 120
        assert result.metrics == _hand_written_protocol(frames)
