"""The multi-DNN face identification pipeline (paper Sec. 4.7, Fig. 10/11).

Stage 1 detects faces in video frames with Faster R-CNN; each detected
face becomes a message carrying a 160x160 crop; stage 2 identifies each
face with FaceNet.  Because one frame yields many faces, the stages run
at different rates and are connected through a message broker:

- **kafka**: synchronous per-message produces (as in the prior work the
  paper revisits, Richins et al.) against a disk-backed log;
- **redis**: pipelined per-frame produces against an in-memory list;
- **fused**: no broker — the detection instance identifies each face
  inline, sequentially, at batch 1 (the "running two stages with
  different rates" inefficiency the paper describes).

Stage-2 batching is a dynamic batcher over the *message stream*, so the
crossover where Redis overtakes Fused (paper: >= 9 faces/frame) emerges
from batch-formation dynamics: below it the message rate is too low to
form multi-face batches, so brokered identification runs at the same
batch-1 efficiency as Fused while also paying broker costs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from ..brokers import Broker, make_broker
from ..core.batcher import DynamicBatcher
from ..core.metrics import MetricsCollector
from ..core.request import (
    SPAN_INFERENCE,
    SPAN_POSTPROCESS,
    SPAN_PREPROCESS,
    SPAN_QUEUE,
    InferenceRequest,
)
from ..hardware.gpu import Gpu, PRIORITY_INFERENCE
from ..hardware.pcie import D2H, H2D
from ..hardware.platform import ServerNode
from ..models.detection import FACE_CROP_BYTES, FacesPerFrame, FixedFaces
from ..models.dnn import inference_cost, inference_latency
from ..models.runtimes import get_runtime
from ..models.zoo import get_model
from ..kernel import Event, ExecutionBackend, RandomStreams
from ..vision.image import Image

__all__ = ["FacePipelineConfig", "FacePipeline", "SPAN_BROKER", "SPAN_IDENTIFY", "SPAN_DETECT"]

#: Extra spans recorded on frame requests.
SPAN_DETECT = "inference"  # stage-1 DNN time reuses the inference span
SPAN_BROKER = "broker"
SPAN_IDENTIFY = "identify"

_BROKER_MODES = ("kafka", "redis", "fused")


@dataclass(frozen=True, kw_only=True)
class FacePipelineConfig:
    """Deployment knobs for the two-stage pipeline."""

    broker: str = "redis"
    faces_per_frame: int = 5
    detection_model: str = "faster-rcnn-face"
    identification_model: str = "facenet"
    runtime: str = "tensorrt"
    detection_instances: int = 4
    detection_max_batch: int = 4
    detection_queue_delay_seconds: float = 2.0e-3
    identification_instances: int = 2
    identification_max_batch: int = 64
    #: Triton preferred_batch_size for stage 2: an idle instance only
    #: grabs a batch early once it holds this many faces.
    identification_preferred_batch: int = 16
    identification_queue_delay_seconds: float = 10.0e-3
    #: Per-frame CPU frame handling (receive + colour convert + crop prep).
    frame_overhead_seconds: float = 0.5e-3
    #: Per-face CPU dispatch overhead in the fused inline loop.
    fused_dispatch_cpu_seconds: float = 0.05e-3
    #: Per-batch stage-2 *server* overhead (request handling, scheduler,
    #: stream sync) paid only by the brokered deployments, where
    #: identification runs behind its own serving frontend.
    stage2_batch_overhead_seconds: float = 2.0e-3
    #: Fraction of the kernel-launch chain the fused in-process
    #: invocation pays (CUDA-graph capture amortizes launches; there is
    #: no server dispatch or stream synchronization per call).
    fused_launch_fraction: float = 0.04

    def __post_init__(self) -> None:
        if self.broker not in _BROKER_MODES:
            raise ValueError(f"broker must be one of {_BROKER_MODES}, got {self.broker!r}")
        if self.faces_per_frame < 0:
            raise ValueError("faces_per_frame must be >= 0")
        if self.detection_instances < 1 or self.identification_instances < 1:
            raise ValueError("instance counts must be >= 1")
        if self.detection_max_batch < 1 or self.identification_max_batch < 1:
            raise ValueError("batch sizes must be >= 1")

    def validate(self) -> "FacePipelineConfig":
        """Re-run field validation (useful after deserialization)."""
        self.__post_init__()
        return self

    def with_overrides(self, **kwargs) -> "FacePipelineConfig":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


class _Frame:
    """Book-keeping for one in-flight frame."""

    __slots__ = ("request", "done", "faces_total", "faces_remaining")

    def __init__(self, request: InferenceRequest, done: Event, faces: int) -> None:
        self.request = request
        self.done = done
        self.faces_total = faces
        self.faces_remaining = faces


class FacePipeline:
    """Face detection -> (broker) -> identification on one server node."""

    def __init__(
        self,
        env: ExecutionBackend,
        node: ServerNode,
        config: FacePipelineConfig,
        streams: RandomStreams,
        metrics: Optional[MetricsCollector] = None,
        on_complete=None,
    ) -> None:
        self.env = env
        self.node = node
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.on_complete = on_complete
        self.calibration = node.calibration

        self.detector = get_model(config.detection_model)
        self.identifier = get_model(config.identification_model)
        self.runtime = get_runtime(config.runtime)
        self.faces_distribution: FacesPerFrame = FixedFaces(config.faces_per_frame)
        self._faces_rng = streams.stream("faces-per-frame")

        self.gpu: Gpu = node.gpus[0]
        self.fused = config.broker == "fused"
        self.broker: Optional[Broker] = None
        if not self.fused:
            self.broker = make_broker(config.broker, env, node)

        self._det_batcher = DynamicBatcher(
            env,
            max_batch=config.detection_max_batch,
            max_queue_delay=config.detection_queue_delay_seconds,
            output_capacity=config.detection_instances,
            name="detect-batcher",
        )
        for _ in range(config.detection_instances):
            env.spawn(self._detection_instance())

        #: Optional :class:`~repro.telemetry.tracer.Tracer`; when set,
        #: submitted frames are armed for timestamped span recording.
        self.tracer = None

        if not self.fused:
            self._id_batcher = DynamicBatcher(
                env,
                max_batch=config.identification_max_batch,
                max_queue_delay=config.identification_queue_delay_seconds,
                output_capacity=config.identification_instances,
                name="identify-batcher",
                preferred_batch=config.identification_preferred_batch,
            )
            env.spawn(self._consumer())
            for _ in range(config.identification_instances):
                env.spawn(self._identification_instance())

    def __repr__(self) -> str:
        return f"<FacePipeline broker={self.config.broker} faces={self.config.faces_per_frame}>"

    def register_metrics(self, registry) -> None:
        """Publish pipeline state as registry views (observation only)."""
        self.metrics.register_metrics(registry)
        registry.gauge_fn(
            "repro_stage_queue_depth",
            "Requests waiting in the stage batcher",
            lambda: self._det_batcher.queue.size,
            stage="detect",
        )
        registry.counter_fn(
            "repro_stage_batches_total",
            "Batches handed to stage instances",
            lambda: self._det_batcher.dispatched_batches,
            stage="detect",
        )
        if not self.fused:
            registry.gauge_fn(
                "repro_stage_queue_depth",
                "Requests waiting in the stage batcher",
                lambda: self._id_batcher.queue.size,
                stage="identify",
            )
            registry.counter_fn(
                "repro_stage_batches_total",
                "Batches handed to stage instances",
                lambda: self._id_batcher.dispatched_batches,
                stage="identify",
            )
        registry.gauge_fn(
            "repro_gpu_memory_used_bytes",
            "GPU memory pool bytes in use",
            lambda: self.gpu.memory.used_bytes,
            gpu=str(self.gpu.index),
        )
        if self.broker is not None:
            self.broker.register_metrics(registry)

    # -- public API ------------------------------------------------------------

    def submit(self, frame_image: Image, phase: Optional[str] = None) -> Event:
        """Submit one frame; the event succeeds when every face is identified."""
        request = InferenceRequest(frame_image, arrival_time=self.env.now,
                                   phase=phase)
        if self.tracer is not None:
            self.tracer.register(request)
        done = self.env.event()
        faces = self.faces_distribution.sample(self._faces_rng)
        frame = _Frame(request, done, faces)
        self.env.spawn(self._ingest(frame))
        return done

    # -- stage 1: detection -------------------------------------------------------

    def _ingest(self, frame: _Frame):
        request = frame.request
        request.begin(SPAN_PREPROCESS, self.env.now)
        yield from self.node.cpu.run(self.config.frame_overhead_seconds)
        # Frame to the GPU for detection (pinned capture buffers).
        yield from self.gpu.link.transfer(frame.request.image.decoded_bytes, H2D, pinned=True)
        request.end(SPAN_PREPROCESS, self.env.now)
        request.begin(SPAN_QUEUE, self.env.now)
        yield self._det_batcher.submit(frame)

    def _detection_instance(self):
        config = self.config
        while True:
            frames: List[_Frame] = yield self._det_batcher.next_batch()
            now = self.env.now
            for frame in frames:
                frame.request.end(SPAN_QUEUE, now)
                frame.request.batch_size = len(frames)
                frame.request.begin(SPAN_INFERENCE, now)
            latency = inference_latency(
                self.detector, self.runtime, len(frames), self.calibration
            )
            yield from self.gpu.execute(latency, priority=PRIORITY_INFERENCE)
            now = self.env.now
            for frame in frames:
                frame.request.end(SPAN_INFERENCE, now)

            if self.fused:
                yield from self._identify_inline(frames)
            else:
                yield from self._publish_faces(frames)

    # -- fused: inline per-face identification --------------------------------------

    def _identify_inline(self, frames: List[_Frame]):
        """Sequential per-face identification inside the detection worker.

        The fused process walks the detected faces and invokes the
        identification DNN once per face at batch 1 — the straightforward
        in-process implementation, and exactly the "two stages with
        different rates" inefficiency the paper describes: no
        cross-frame batching, a full kernel-launch chain per face.  It
        wins at low fan-out (no broker or stage-2 server costs at all)
        and loses once the brokered stage-2 batcher sees enough message
        rate to form multi-face batches (paper: >= 9 faces/frame).
        """
        cost = inference_cost(self.identifier, self.runtime, 1, self.calibration)
        single = (
            max(cost.compute_seconds, cost.memory_seconds)
            + cost.launch_seconds * self.config.fused_launch_fraction
        )
        for frame in frames:
            if frame.faces_total == 0:
                self.env.spawn(self._finalize(frame))
                continue
            frame.request.begin(SPAN_IDENTIFY, self.env.now)
            for _ in range(frame.faces_total):
                yield from self.node.cpu.run(self.config.fused_dispatch_cpu_seconds)
                yield from self.gpu.execute(single, priority=PRIORITY_INFERENCE)
            frame.request.end(SPAN_IDENTIFY, self.env.now)
            self.env.spawn(self._finalize(frame))

    # -- brokered: produce / consume / batched identification ------------------------

    def _publish_faces(self, frames: List[_Frame]):
        """Move crops to the host and produce one message per face."""
        broker = self.broker
        assert broker is not None
        for frame in frames:
            if frame.faces_total == 0:
                self.env.spawn(self._finalize(frame))
                continue
            # Crop extraction result back to host memory for serialization.
            yield from self.gpu.link.transfer(
                frame.faces_total * FACE_CROP_BYTES, D2H, pinned=True
            )
            frame.request.begin(SPAN_BROKER, self.env.now)
            if broker.name == "kafka":
                # Prior-work style: synchronous produce per message.
                for face_index in range(frame.faces_total):
                    message = yield from broker.produce((frame, face_index), FACE_CROP_BYTES)
                    if message.lost:
                        self._note_lost_face(frame)
            else:
                # Redis pipelining: one round trip, per-message marginal
                # cost inside the broker.
                yield from self._pipelined_produce(broker, frame)
            frame.request.end(SPAN_BROKER, self.env.now)

    def _pipelined_produce(self, broker: Broker, frame: _Frame):
        # One client round trip for the whole frame's faces...
        yield self.env.timeout(broker.produce_seconds)
        # ...then the broker processes each message without the producer
        # paying a per-message round trip.
        for face_index in range(frame.faces_total):
            message = yield from broker.produce_pipelined((frame, face_index), FACE_CROP_BYTES)
            if message.lost:
                self._note_lost_face(frame)

    def _note_lost_face(self, frame: _Frame) -> None:
        """Account a face whose message an at-most-once broker dropped.

        The frame must still finish (the client is waiting on its done
        event), so a lost face counts as handled; if it was the last
        outstanding face the frame finalizes here instead of in the
        identification stage.
        """
        frame.faces_remaining -= 1
        if frame.faces_remaining == 0:
            if frame.request.span_open(SPAN_IDENTIFY):
                frame.request.end(SPAN_IDENTIFY, self.env.now)
            self.env.spawn(self._finalize(frame))

    def _consumer(self):
        """Drain the topic into the identification batcher."""
        broker = self.broker
        assert broker is not None
        while True:
            message = yield from broker.consume()
            frame, _face_index = message.payload
            frame.request.add(SPAN_BROKER, message.consume_seconds, now=self.env.now)
            yield self._id_batcher.submit(message)

    def _identification_instance(self):
        while True:
            batch = yield self._id_batcher.next_batch()
            frames_in_batch: Dict[int, _Frame] = {}
            now = self.env.now
            for message in batch:
                frame, _ = message.payload
                frames_in_batch[id(frame)] = frame
                if not frame.request.span_open(SPAN_IDENTIFY):
                    frame.request.begin(SPAN_IDENTIFY, now)
            # Crops back to the GPU (pinned staging) and batched FaceNet.
            yield from self.gpu.link.transfer(len(batch) * FACE_CROP_BYTES, H2D, pinned=True)
            latency = (
                inference_latency(self.identifier, self.runtime, len(batch), self.calibration)
                + self.config.stage2_batch_overhead_seconds
            )
            yield from self.gpu.execute(latency, priority=PRIORITY_INFERENCE)
            now = self.env.now
            for message in batch:
                frame, _ = message.payload
                frame.faces_remaining -= 1
            for frame in frames_in_batch.values():
                if frame.faces_remaining == 0:
                    frame.request.end(SPAN_IDENTIFY, now)
                    self.env.spawn(self._finalize(frame))

    # -- completion --------------------------------------------------------------

    def _finalize(self, frame: _Frame):
        request = frame.request
        request.begin(SPAN_POSTPROCESS, self.env.now)
        yield from self.node.cpu.run(self.calibration.cpu.response_overhead_seconds)
        request.end(SPAN_POSTPROCESS, self.env.now)
        request.complete(self.env.now)
        self.metrics.record(request)
        if self.on_complete is not None:
            self.on_complete(request)
        frame.done.succeed(request)
