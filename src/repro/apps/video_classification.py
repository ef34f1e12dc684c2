"""Video-classification serving (the paper's Sec. 1 motivating pipeline).

A video request is decoded on host cores (GOP-structured, see
:mod:`repro.vision.video`), ``frames_per_clip`` frames are sampled,
each frame is resized/normalized, and the frame batch runs through the
DNN; the clip's label is the aggregate.  The pipeline exposes the same
span ledger as image serving, so the overhead anatomy of video requests
drops out of the same analysis tooling.

Decode parallelism is per-request (one clip decodes on one core — video
entropy decoding is sequential), which is exactly why video serving is
even more preprocessing-bound than image serving.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..core.batcher import DynamicBatcher
from ..core.metrics import MetricsCollector
from ..core.request import (
    SPAN_FRONTEND,
    SPAN_INFERENCE,
    SPAN_POSTPROCESS,
    SPAN_PREPROCESS,
    SPAN_PREPROCESS_WAIT,
    SPAN_QUEUE,
    SPAN_TRANSFER,
    InferenceRequest,
)
from ..hardware.gpu import PRIORITY_INFERENCE
from ..hardware.pcie import D2H, H2D
from ..hardware.platform import ServerNode
from ..models.dnn import inference_latency
from ..models.runtimes import get_runtime
from ..models.zoo import get_model
from ..kernel import Event, ExecutionBackend, Resource
from ..vision.video import Video, uniform_sample_indices, video_decode_cost
from ..vision.ops import cpu_normalize_seconds, cpu_resize_seconds

__all__ = ["VideoServerConfig", "VideoClassificationServer"]


@dataclass(frozen=True)
class VideoServerConfig:
    """Deployment knobs for video classification."""

    model: str = "vit-base-16"
    runtime: str = "tensorrt"
    frames_per_clip: int = 8
    decode_workers: int = 16
    inference_instances: int = 2
    max_batch_size: int = 64  # frames, across clips
    max_queue_delay_seconds: float = 2.0e-3

    def __post_init__(self) -> None:
        if self.frames_per_clip < 1:
            raise ValueError("frames_per_clip must be >= 1")
        if self.decode_workers < 1 or self.inference_instances < 1:
            raise ValueError("worker/instance counts must be >= 1")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_queue_delay_seconds < 0:
            raise ValueError("max_queue_delay_seconds must be >= 0")

    def with_overrides(self, **kwargs) -> "VideoServerConfig":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


class _Clip:
    __slots__ = ("request", "done", "frames_remaining")

    def __init__(self, request: InferenceRequest, done: Event, frames: int) -> None:
        self.request = request
        self.done = done
        self.frames_remaining = frames


class VideoClassificationServer:
    """Decode -> sample -> per-frame preprocess -> batched inference."""

    def __init__(
        self,
        env: ExecutionBackend,
        node: ServerNode,
        config: VideoServerConfig,
        metrics: Optional[MetricsCollector] = None,
        on_complete: Optional[Callable[[InferenceRequest], None]] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.config = config
        self.calibration = node.calibration
        self.model = get_model(config.model)
        self.runtime = get_runtime(config.runtime)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.on_complete = on_complete
        self.gpu = node.gpus[0]
        self.tensor_bytes = self.model.input_size * self.model.input_size * 3 * 2

        self._decoders = Resource(env, capacity=config.decode_workers)
        self._batcher = DynamicBatcher(
            env,
            max_batch=config.max_batch_size,
            max_queue_delay=config.max_queue_delay_seconds,
            output_capacity=config.inference_instances,
            name="video-frame-batcher",
        )
        for _ in range(config.inference_instances):
            env.spawn(self._inference_instance())

    def __repr__(self) -> str:
        return (
            f"<VideoClassificationServer {self.model.name} "
            f"frames={self.config.frames_per_clip}>"
        )

    def submit(self, video: Video) -> Event:
        """Submit one clip; the event succeeds when it is classified."""
        # The request's "image" slot carries a representative frame.
        request = InferenceRequest(video.frame_as_image(0), arrival_time=self.env.now)
        done = self.env.event()
        self.env.spawn(self._handle(video, request, done))
        return done

    # -- pipeline ----------------------------------------------------------------

    def _handle(self, video: Video, request: InferenceRequest, done: Event):
        cpu = self.node.cpu
        calib = self.calibration.cpu

        request.begin(SPAN_FRONTEND, self.env.now)
        yield from cpu.run(calib.frontend_overhead_seconds)
        with self.node.ingest.request() as grant:
            yield grant
            yield self.env.timeout(
                video.compressed_bytes / calib.ingest_blob_bytes_per_second
            )
        request.end(SPAN_FRONTEND, self.env.now)

        # Sequential decode of the sampled frames' GOP spans on one core.
        samples = uniform_sample_indices(video, self.config.frames_per_clip)
        decode = video_decode_cost(video, samples, self.calibration)
        frame = video.frame_as_image(0)
        per_frame_post = (
            cpu_resize_seconds(frame, self.calibration)
            + cpu_normalize_seconds(self.model.input_size, self.calibration)
        )
        request.begin(SPAN_PREPROCESS_WAIT, self.env.now)
        with self._decoders.request() as worker:
            yield worker
            request.end(SPAN_PREPROCESS_WAIT, self.env.now)
            request.begin(SPAN_PREPROCESS, self.env.now)
            yield from cpu.run(decode.total_seconds + len(samples) * per_frame_post)
            request.end(SPAN_PREPROCESS, self.env.now)

        # Frame tensors to the GPU in one gathered copy per clip.
        nbytes = len(samples) * self.tensor_bytes
        start = self.env.now
        yield from self.gpu.link.transfer(nbytes, H2D, pinned=False)
        request.add(SPAN_TRANSFER, self.env.now - start)

        clip = _Clip(request, done, frames=len(samples))
        request.begin(SPAN_QUEUE, self.env.now)
        for _ in range(len(samples)):
            yield self._batcher.submit(clip)

    def _inference_instance(self):
        while True:
            batch = yield self._batcher.next_batch()
            now = self.env.now
            clips = {}
            for clip in batch:
                clips[id(clip)] = clip
                if clip.request.span_open(SPAN_QUEUE):
                    clip.request.end(SPAN_QUEUE, now)
                if not clip.request.span_open(SPAN_INFERENCE):
                    clip.request.begin(SPAN_INFERENCE, now)
                if clip.request.batch_size is None:
                    clip.request.batch_size = len(batch)
            latency = inference_latency(self.model, self.runtime, len(batch), self.calibration)
            yield from self.gpu.execute(latency, priority=PRIORITY_INFERENCE)
            now = self.env.now
            for clip in batch:
                clip.frames_remaining -= 1
            start = self.env.now
            yield from self.gpu.link.transfer(len(batch) * 4000, D2H, pinned=False)
            elapsed = self.env.now - start
            for clip in clips.values():
                clip.request.add(SPAN_TRANSFER, elapsed)
                if clip.frames_remaining == 0:
                    clip.request.end(SPAN_INFERENCE, now)
                    self.env.spawn(self._finalize(clip))

    def _finalize(self, clip: _Clip):
        request = clip.request
        request.begin(SPAN_POSTPROCESS, self.env.now)
        # Aggregate frame logits into the clip label.
        yield from self.node.cpu.run(self.calibration.cpu.response_overhead_seconds * 2)
        request.end(SPAN_POSTPROCESS, self.env.now)
        request.complete(self.env.now)
        self.metrics.record(request)
        if self.on_complete is not None:
            self.on_complete(request)
        clip.done.succeed(request)
