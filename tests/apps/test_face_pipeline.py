"""Integration tests for the multi-DNN face pipeline (Sec. 4.7)."""

import pytest

from repro.apps import FacePipeline, FacePipelineConfig
from repro.hardware import ServerNode
from repro.serving import run_face_pipeline
from repro.sim import Environment, RandomStreams
from repro.vision import VideoFrameDataset


def single_frame(broker, faces):
    env = Environment()
    node = ServerNode(env)
    pipeline = FacePipeline(
        env, node, FacePipelineConfig(broker=broker, faces_per_frame=faces), RandomStreams(0)
    )
    frame = VideoFrameDataset().sample(RandomStreams(0).stream("x"))
    request = env.run(until=pipeline.submit(frame))
    return request


class TestValidation:
    def test_bad_broker(self):
        with pytest.raises(ValueError):
            FacePipelineConfig(broker="zeromq")

    def test_bad_faces(self):
        with pytest.raises(ValueError):
            FacePipelineConfig(faces_per_frame=-1)

    def test_with_overrides(self):
        config = FacePipelineConfig(broker="kafka")
        assert config.with_overrides(faces_per_frame=9).broker == "kafka"


class TestSingleFrame:
    @pytest.mark.parametrize("broker", ["kafka", "redis", "fused"])
    def test_frame_completes(self, broker):
        request = single_frame(broker, faces=5)
        assert request.completion_time is not None
        assert request.spans["inference"] > 0  # detection
        assert request.spans["identify"] > 0

    @pytest.mark.parametrize("broker", ["kafka", "redis", "fused"])
    def test_zero_faces_frame_completes(self, broker):
        request = single_frame(broker, faces=0)
        assert request.completion_time is not None
        assert "identify" not in request.spans

    def test_fused_has_no_broker_span(self):
        request = single_frame("fused", faces=5)
        assert "broker" not in request.spans

    def test_kafka_broker_span_dominates(self):
        """Paper: Kafka takes ~71% of zero-load latency at 25 faces."""
        request = single_frame("kafka", faces=25)
        assert request.span_fraction("broker") > 0.5

    def test_redis_broker_span_small(self):
        """Paper: Redis takes ~6% of zero-load latency at 25 faces."""
        request = single_frame("redis", faces=25)
        assert request.span_fraction("broker") < 0.15

    def test_more_faces_longer_latency(self):
        few = single_frame("redis", faces=2)
        many = single_frame("redis", faces=25)
        assert many.latency > few.latency


class TestThroughputRelations:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for broker in ("kafka", "redis", "fused"):
            for faces in (1, 25):
                result = run_face_pipeline(
                    FacePipelineConfig(broker=broker, faces_per_frame=faces),
                    concurrency=96,
                    warmup_requests=100,
                    measure_requests=500,
                )
                out[(broker, faces)] = result.throughput
        return out

    def test_fused_wins_at_one_face(self, results):
        assert results[("fused", 1)] > results[("redis", 1)]
        assert results[("fused", 1)] > results[("kafka", 1)]

    def test_redis_beats_kafka_at_high_fanout(self, results):
        """Paper: +125% (2.25x) throughput at 25 faces/frame."""
        ratio = results[("redis", 25)] / results[("kafka", 25)]
        assert ratio > 1.7

    def test_redis_beats_fused_at_high_fanout(self, results):
        assert results[("redis", 25)] > results[("fused", 25)]

    def test_throughput_decreases_with_fanout(self, results):
        for broker in ("kafka", "redis", "fused"):
            assert results[(broker, 25)] < results[(broker, 1)]
