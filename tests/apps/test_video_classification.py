"""Tests for the video-classification serving pipeline."""

import pytest

from repro.apps import VideoClassificationServer, VideoServerConfig
from repro.core import MetricsCollector
from repro.hardware import ServerNode
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
