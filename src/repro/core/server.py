"""The throughput-optimized inference server (Triton-like, paper Sec. 2).

One :class:`InferenceServer` deploys one model on a
:class:`~repro.hardware.platform.ServerNode` under a
:class:`~repro.core.config.ServerConfig` and serves
:class:`~repro.core.request.InferenceRequest` objects end to end:

    frontend -> preprocessing (CPU workers | per-GPU DALI pipelines)
             -> dynamic batcher -> inference instances -> response

Every stage charges time to the devices it occupies (CPU cores, DALI
staging threads, GPU compute engines, PCIe DMA engines, GPU memory), so
throughput, latency breakdowns, queueing, eviction behaviour, and energy
all *emerge* from resource contention rather than being computed in
closed form.

Stage-isolation modes reproduce Fig. 7: ``preprocess_only`` stops after
preprocessing; ``inference_only`` accepts ready tensors from the client
(paying the ~5x larger pageable raw-tensor transfer the paper
root-causes the TinyViT anomaly to).
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Optional

from ..cache.tiers import CacheEntry, CacheHierarchy
from ..hardware.gpu import Gpu, PRIORITY_INFERENCE, PRIORITY_PREPROCESS
from ..hardware.pcie import D2H, H2D
from ..hardware.platform import ServerNode
from ..models.dnn import inference_latency
from ..models.runtimes import RuntimeSpec, get_runtime
from ..models.zoo import ModelSpec, get_model
from ..kernel import Event, ExecutionBackend, Resource
from ..sim.sums import float_sum
from ..vision.image import Image
from ..vision.ops import cpu_preprocess_cost, gpu_preprocess_cost
from .batcher import DynamicBatcher
from .config import (
    CPU_PREPROCESS,
    GPU_PREPROCESS,
    MODE_END_TO_END,
    MODE_INFERENCE_ONLY,
    MODE_PREPROCESS_ONLY,
    ServerConfig,
)
from .metrics import MetricsCollector
from .request import (
    SPAN_FRONTEND,
    SPAN_INFERENCE,
    SPAN_POSTPROCESS,
    SPAN_PREPROCESS,
    SPAN_PREPROCESS_WAIT,
    SPAN_QUEUE,
    SPAN_TRANSFER,
    InferenceRequest,
)

__all__ = ["InferenceServer", "BatchEntry"]


def _output_bytes(model: ModelSpec) -> float:
    """Response payload size by task (what crosses PCIe back to the host)."""
    if model.task == "classification":
        return 1000 * 4  # logits
    if model.task == "segmentation":
        return model.input_size * model.input_size  # argmax'd class map
    if model.task == "depth":
        return model.input_size * model.input_size * 4  # float depth map
    if model.task == "detection":
        return 16 * 1024  # boxes + scores + masks metadata
    if model.task == "embedding":
        return 512 * 4
    return 4 * 1024


class BatchEntry:
    """One request flowing through the batcher with its tensor state."""

    __slots__ = ("request", "allocation", "evicted", "gpu", "cache_entry")

    def __init__(self, request: InferenceRequest, gpu: Optional[Gpu]) -> None:
        self.request = request
        self.allocation = None  # GPU Allocation once the tensor is device-resident
        self.evicted = False
        self.gpu = gpu
        #: Tensor-cache entry backing this request (tensor-tier hit); the
        #: cached allocation belongs to the cache, not the request.
        self.cache_entry: Optional[CacheEntry] = None


class InferenceServer:
    """A single-model, single-node serving deployment."""

    def __init__(
        self,
        env: ExecutionBackend,
        node: ServerNode,
        config: ServerConfig,
        metrics: Optional[MetricsCollector] = None,
        on_complete: Optional[Callable[[InferenceRequest], None]] = None,
    ) -> None:
        self.env = env
        self.node = node
        self.config = config
        self.calibration = node.calibration
        self.model: ModelSpec = get_model(config.model)
        self.runtime: RuntimeSpec = get_runtime(config.runtime)
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.on_complete = on_complete

        #: Internal DNN input tensor bytes (fp16 CHW, matching the
        #: TensorRT engines' precision).
        self.tensor_bytes = self.model.input_size * self.model.input_size * 3 * 2
        #: Raw tensor bytes as shipped by an inference-only client
        #: (decoded fp32 image — the "~5x larger" payload of Sec. 4.4).
        self.raw_tensor_bytes = self.model.input_size * self.model.input_size * 3 * 4
        self.output_bytes = _output_bytes(self.model)

        self._rr = itertools.cycle(range(node.gpu_count))
        self._cpu_workers = Resource(env, capacity=config.preprocess_workers)

        # One inference batcher per GPU (tensors become device-resident).
        self._batchers: List[DynamicBatcher] = [
            DynamicBatcher(
                env,
                max_batch=config.max_batch_size,
                max_queue_delay=config.max_queue_delay_seconds,
                output_capacity=config.inference_instances,
                name=f"infer-batcher-gpu{i}",
            )
            for i in range(node.gpu_count)
        ]
        # One preprocessing batcher + pipeline per GPU for DALI-style
        # GPU preprocessing.
        self._preproc_batchers: List[DynamicBatcher] = []
        if self._uses_gpu_preprocessing:
            for i, gpu in enumerate(node.gpus):
                batcher = DynamicBatcher(
                    env,
                    max_batch=config.preprocess_batch_size,
                    max_queue_delay=config.preprocess_queue_delay_seconds,
                    output_capacity=config.preprocess_pipelines,
                    name=f"preproc-batcher-gpu{i}",
                    greedy=False,  # DALI waits for its preferred batch
                )
                self._preproc_batchers.append(batcher)
                for _ in range(config.preprocess_pipelines):
                    env.spawn(self._gpu_preprocess_pipeline(gpu, batcher))

        if config.mode != MODE_PREPROCESS_ONLY:
            for i, gpu in enumerate(node.gpus):
                for _ in range(config.inference_instances):
                    env.spawn(self._inference_instance(gpu, self._batchers[i]))

        #: Content-aware cache hierarchy (``None`` = caching disabled;
        #: the request path is then bit-identical to pre-cache builds).
        #: Caching only applies to the full pipeline: the stage-isolation
        #: modes exist to measure raw stage costs, not to be optimized.
        self.cache: Optional[CacheHierarchy] = None
        if (
            config.cache is not None
            and config.cache.enabled
            and config.cache.any_tier_enabled
            and config.mode == MODE_END_TO_END
        ):
            self.cache = CacheHierarchy(env, config.cache, node.gpus)

        # Diagnostics
        self.eviction_reloads = 0

        #: Optional :class:`~repro.telemetry.tracer.Tracer`; when set,
        #: submitted requests are armed for timestamped span recording.
        #: Attachment is purely observational — the request path draws
        #: no randomness and schedules no events on its behalf.
        self.tracer = None

    def __repr__(self) -> str:
        return (
            f"<InferenceServer {self.model.name}/{self.runtime.name} "
            f"preproc={self.config.preprocess_device} mode={self.config.mode}>"
        )

    def drain(self):
        """Event: gracefully drain every batcher (see
        :meth:`~repro.core.batcher.DynamicBatcher.drain`).

        Succeeds once all preprocessing and inference batchers have
        flushed their queues as (partial) batches.  Live serving calls
        this on shutdown so admitted requests complete instead of being
        dropped; callers impose a deadline with ``yield drain() |
        env.timeout(grace)``.
        """
        drains = [b.drain() for b in self._batchers]
        drains.extend(b.drain() for b in self._preproc_batchers)
        return self.env.all_of(drains)

    @property
    def _uses_gpu_preprocessing(self) -> bool:
        return (
            self.config.preprocess_device == GPU_PREPROCESS
            and self.config.mode in (MODE_END_TO_END, MODE_PREPROCESS_ONLY)
        )

    def register_metrics(self, registry) -> None:
        """Publish server state as registry views (observation only).

        Every instrument is callback-backed over counters the server
        maintains anyway, so registration cannot perturb the run.
        """
        self.metrics.register_metrics(registry)
        registry.counter_fn(
            "repro_eviction_reloads_total",
            "Evicted/stale tensors reloaded from host memory",
            lambda: self.eviction_reloads,
        )
        for index, batcher in enumerate(self._batchers):
            registry.gauge_fn(
                "repro_batch_queue_depth",
                "Requests waiting in the inference batcher",
                lambda b=batcher: b.queue.size,
                gpu=str(index),
            )
            registry.counter_fn(
                "repro_batches_dispatched_total",
                "Batches handed to inference instances",
                lambda b=batcher: b.dispatched_batches,
                gpu=str(index),
            )
            registry.counter_fn(
                "repro_batch_items_total",
                "Requests dispatched inside batches",
                lambda b=batcher: b.dispatched_items,
                gpu=str(index),
            )
        for gpu in self.node.gpus:
            registry.gauge_fn(
                "repro_gpu_memory_used_bytes",
                "GPU memory pool bytes in use",
                lambda g=gpu: g.memory.used_bytes,
                gpu=str(gpu.index),
            )
            registry.gauge_fn(
                "repro_gpu_memory_peak_bytes",
                "High-water mark of the GPU memory pool",
                lambda g=gpu: g.memory.peak_used,
                gpu=str(gpu.index),
            )
        if self.cache is not None:
            self.cache.register_metrics(registry)

    # -- public API ----------------------------------------------------------

    def submit(
        self,
        image: Image,
        arrival_time: Optional[float] = None,
        deadline: Optional[float] = None,
        attempt: int = 0,
        phase: Optional[str] = None,
        trace=None,
    ) -> Event:
        """Submit one request; the returned event succeeds at completion
        with the finished :class:`InferenceRequest` as its value.

        ``arrival_time`` lets a load balancer backdate the request to
        when it entered the datacenter, so balancer queueing counts
        toward end-to-end latency.  ``deadline`` (absolute simulation
        time) marks the request as a timeout if it completes at or past
        it; ``attempt`` is the retry index stamped by resilient callers;
        ``phase`` is the workload phase the arrival was issued under
        (stamped onto the request for per-phase metrics and traces);
        ``trace`` is the distributed
        :class:`~repro.telemetry.context.TraceContext` hop propagated
        from the caller (fabric message or HTTP ``traceparent``).
        """
        request = InferenceRequest(
            image,
            arrival_time=self.env.now if arrival_time is None else arrival_time,
            deadline=deadline,
            attempt=attempt,
            phase=phase,
        )
        request.trace = trace
        if self.tracer is not None:
            self.tracer.register(request)
        done = self.env.event()
        self.env.spawn(self._handle(request, done))
        return done

    # -- cache keys ------------------------------------------------------------

    def _tensor_key(self, image: Image) -> str:
        """Tensor-tier key: content resized for *this* model's input."""
        if not image.content_id:
            return ""
        return f"{image.content_id}@{self.model.input_size}"

    def _result_key(self, image: Image) -> str:
        """Result-tier key: content inferred by *this* model+runtime."""
        if not image.content_id:
            return ""
        return f"{image.content_id}@{self.model.name}/{self.runtime.name}"

    # -- request driver --------------------------------------------------------

    def _handle(self, request: InferenceRequest, done: Event):
        cpu = self.node.cpu
        calib = self.calibration.cpu

        request.begin(SPAN_FRONTEND, self.env.now)
        yield from cpu.run(calib.frontend_overhead_seconds)
        # Payload deserialization on the (serialized) connection thread:
        # raw tensors are ~5x the compressed bytes and must be copied and
        # laid out, so the inference-only ingest path is far slower.
        if self.config.mode == MODE_INFERENCE_ONLY:
            parse_seconds = self.raw_tensor_bytes / calib.ingest_tensor_bytes_per_second
        else:
            parse_seconds = (
                request.image.compressed_bytes / calib.ingest_blob_bytes_per_second
            )
        with self.node.ingest.request() as grant:
            yield grant
            yield self.env.timeout(parse_seconds)
        request.end(SPAN_FRONTEND, self.env.now)

        # Exact-duplicate short-circuit: a cached inference result skips
        # preprocessing, transfer, and the DNN entirely.
        if self.cache is not None:
            if self.cache.lookup_result(self._result_key(request.image)) is not None:
                request.served_from = "result"
                yield from self._finalize(request, done)
                return

        gpu_index = next(self._rr)
        request.gpu_index = gpu_index
        gpu = self.node.gpus[gpu_index]

        mode = self.config.mode
        if mode == MODE_INFERENCE_ONLY:
            yield from self._ingest_raw_tensor(request, gpu, done)
            return

        # Preprocessed tensor already resident in this GPU's pool: skip
        # decode/resize/normalize *and* the H2D copy; straight to batching.
        if self.cache is not None:
            tensor_entry = self.cache.lookup_tensor(gpu_index, self._tensor_key(request.image))
            if tensor_entry is not None:
                request.served_from = "tensor"
                entry = BatchEntry(request, gpu)
                entry.cache_entry = tensor_entry
                request.begin(SPAN_QUEUE, self.env.now)
                yield self._batchers[gpu_index].submit((entry, done))
                return

        if self.config.preprocess_device == CPU_PREPROCESS:
            yield from self._cpu_preprocess(request, gpu, done)
        else:
            # Hand off to the per-GPU DALI pipeline.
            entry = BatchEntry(request, gpu)
            request.begin(SPAN_PREPROCESS_WAIT, self.env.now)
            yield self._preproc_batchers[gpu_index].submit((entry, done))

    def _cpu_preprocess(self, request: InferenceRequest, gpu: Gpu, done: Event):
        """Python-backend preprocessing on host cores."""
        cost = cpu_preprocess_cost(request.image, self.model.input_size, self.calibration)
        core_seconds = cost.core_seconds
        image_hit = False
        if self.cache is not None:
            if self.cache.lookup_image(request.image.content_id) is not None:
                # Decoded pixels cached in host RAM: skip the JPEG decode,
                # pay only request overhead + resize + normalize.
                image_hit = True
                request.served_from = "image"
                core_seconds -= cost.decode_seconds
        request.begin(SPAN_PREPROCESS_WAIT, self.env.now)
        with self._cpu_workers.request() as worker:
            yield worker
            request.end(SPAN_PREPROCESS_WAIT, self.env.now)
            request.begin(SPAN_PREPROCESS, self.env.now)
            yield from self.node.cpu.run(core_seconds)
            request.end(SPAN_PREPROCESS, self.env.now)
        if self.cache is not None and not image_hit:
            self.cache.admit_image(request.image.content_id, request.image.decoded_bytes)

        if self.config.mode == MODE_PREPROCESS_ONLY:
            yield from self._finalize(request, done)
            return

        # Tensor stays in (pageable) host memory; the inference instance
        # moves the whole batch to the GPU at dispatch time.
        entry = BatchEntry(request, None)
        request.begin(SPAN_QUEUE, self.env.now)
        yield self._batchers[request.gpu_index].submit((entry, done))

    def _ingest_raw_tensor(self, request: InferenceRequest, gpu: Gpu, done: Event):
        """Inference-only mode: the client ships the decoded tensor.

        The raw tensor is ~5x larger than the compressed image and
        arrives in pageable memory, so ingest pays a slow per-request
        PCIe copy (the Fig. 7 TinyViT root cause).
        """
        request.begin(SPAN_TRANSFER, self.env.now)
        yield from gpu.link.transfer(self.raw_tensor_bytes, H2D, pinned=False)
        request.end(SPAN_TRANSFER, self.env.now)

        entry = BatchEntry(request, gpu)
        entry.allocation = yield from gpu.memory.alloc(
            self.raw_tensor_bytes,
            evictable=self.config.allow_eviction,
            on_evict=lambda alloc, e=entry: self._on_evict(e),
        )
        request.begin(SPAN_QUEUE, self.env.now)
        yield self._batchers[request.gpu_index].submit((entry, done))

    # -- GPU (DALI) preprocessing pipeline --------------------------------------

    def _resident_bytes(self, image: Image) -> float:
        """Device-memory footprint parked per request awaiting inference."""
        gpu_cal = self.calibration.gpu
        decoded_fp32 = image.pixels * 3 * 4
        capped = min(decoded_fp32, gpu_cal.preprocess_buffer_cap_bytes)
        return (self.tensor_bytes + capped) * gpu_cal.preprocess_footprint_multiplier

    def _gpu_preprocess_pipeline(self, gpu: Gpu, batcher: DynamicBatcher):
        """One DALI-style pipeline: staged, batched, GPU-executed."""
        gpu_cal = self.calibration.gpu
        staging = self.node.staging
        while True:
            batch = yield batcher.next_batch()
            entries = [entry for entry, _ in batch]
            now = self.env.now
            for entry in entries:
                entry.request.end(SPAN_PREPROCESS_WAIT, now)
                entry.request.begin(SPAN_PREPROCESS, now)

            # Decoded-image cache hits skip host staging and the decode
            # kernel, but ship *decoded* pixels over PCIe instead of the
            # (smaller) JPEG bitstream.
            cached_entries = set()
            if self.cache is not None:
                for entry in entries:
                    if self.cache.lookup_image(entry.request.image.content_id) is not None:
                        cached_entries.add(entry)
                        entry.request.served_from = "image"

            # Each sample is priced once: staging here, kernels in step 4.
            costs = [
                gpu_preprocess_cost(entry.request.image, self.model.input_size, self.calibration)
                for entry in entries
            ]

            # 1. Host staging: each sample needs a staging thread for its
            #    pinned copy + bitstream parse (pool shared across GPUs).
            stage_jobs = [
                self.env.process(self._stage_sample(staging, cost.staging_seconds))
                for entry, cost in zip(entries, costs)
                if entry not in cached_entries
            ]
            if stage_jobs:
                yield self.env.all_of(stage_jobs)
            now = self.env.now
            for entry in entries:
                entry.request.end(SPAN_PREPROCESS, now)

            # 2. Batch payload to the GPU in one pinned batched copy.
            compressed = sum(
                entry.request.image.decoded_bytes
                if entry in cached_entries
                else entry.request.image.compressed_bytes
                for entry in entries
            )
            transfer_start = self.env.now
            yield from gpu.link.transfer(compressed, H2D, pinned=True)
            transfer_time = self.env.now - transfer_start
            now = self.env.now
            for entry in entries:
                entry.request.add(SPAN_TRANSFER, transfer_time, now=now)
                entry.request.begin(SPAN_PREPROCESS, now)

            # 3. Device memory for every sample's working set (evictable
            #    while it waits for an inference slot).
            for entry in entries:
                entry.allocation = yield from gpu.memory.alloc(
                    self._resident_bytes(entry.request.image),
                    evictable=self.config.allow_eviction,
                    on_evict=lambda alloc, e=entry: self._on_evict(e),
                )

            # 4. Decode, then resize/normalize kernel chains.  On devices
            #    with a fixed-function JPEG engine the decode portion runs
            #    there, leaving the SMs to inference (the A100 design the
            #    paper cites in Sec. 2.2).
            decode_time = 0.0
            kernel_time = gpu_cal.preprocess_launch_seconds
            for entry, cost in zip(entries, costs):
                if entry not in cached_entries:
                    decode_time += cost.decode_kernel_seconds
                kernel_time += cost.postprocess_kernel_seconds
            if gpu.decoder is not None:
                yield from gpu.decode(decode_time)
            else:
                kernel_time += decode_time
            yield from gpu.execute(kernel_time, priority=PRIORITY_PREPROCESS)

            now = self.env.now
            for entry in entries:
                entry.request.end(SPAN_PREPROCESS, now)
            if self.cache is not None:
                # Freshly decoded pixels become image-tier candidates (the
                # host write-back is assumed off the critical path).
                for entry in entries:
                    if entry not in cached_entries:
                        self.cache.admit_image(
                            entry.request.image.content_id,
                            entry.request.image.decoded_bytes,
                        )

            if self.config.mode == MODE_PREPROCESS_ONLY:
                for entry, done in batch:
                    gpu.memory.free(entry.allocation)
                    self.env.spawn(self._finalize(entry.request, done))
                continue

            for entry, done in batch:
                entry.request.begin(SPAN_QUEUE, self.env.now)
                yield self._batchers[gpu.index].submit((entry, done))

    def _stage_sample(self, staging, seconds: float):
        """Occupy one staging thread for the sample's host-side work."""
        with staging.request() as grant:
            yield grant
            yield self.env.timeout(seconds)

    def _on_evict(self, entry: BatchEntry) -> None:
        """Pool callback: the entry's tensor was pushed out to host memory."""
        entry.evicted = True
        entry.allocation = None
        entry.request.eviction_count += 1
        gpu = entry.gpu if entry.gpu is not None else self.node.gpus[entry.request.gpu_index]
        # Asynchronous write-back of the resized tensor to host memory.
        self.env.spawn(self._writeback(gpu))

    def _writeback(self, gpu: Gpu):
        yield from gpu.link.transfer(self.tensor_bytes, D2H, pinned=True)

    # -- inference instances -------------------------------------------------------

    def _inference_instance(self, gpu: Gpu, batcher: DynamicBatcher):
        """One model instance (CUDA stream) bound to ``gpu``."""
        while True:
            batch = yield batcher.next_batch()
            entries = [entry for entry, _ in batch]
            now = self.env.now
            for entry in entries:
                entry.request.end(SPAN_QUEUE, now)
                entry.request.batch_size = len(entries)

            yield from self._materialize_inputs(gpu, entries)

            # DNN execution.
            latency = inference_latency(
                self.model, self.runtime, len(entries), self.calibration
            )
            now = self.env.now
            for entry in entries:
                entry.request.begin(SPAN_INFERENCE, now)
            yield from gpu.execute(latency)
            now = self.env.now
            for entry in entries:
                entry.request.end(SPAN_INFERENCE, now)

            # Results back to the host (pageable response buffers).
            out_start = self.env.now
            yield from gpu.link.transfer(len(entries) * self.output_bytes, D2H, pinned=False)
            out_time = self.env.now - out_start
            for entry in entries:
                entry.request.add(SPAN_TRANSFER, out_time, now=self.env.now)
                if entry.allocation is not None:
                    gpu.memory.free(entry.allocation)
                    entry.allocation = None
            if self.cache is not None:
                # The input tensor is the natural tensor-tier candidate:
                # the working set was just freed, so the (smaller) fp16
                # tensor is admitted if the pool has bytes to spare.
                for entry in entries:
                    if entry.cache_entry is None:
                        self.cache.admit_tensor(
                            gpu.index,
                            self._tensor_key(entry.request.image),
                            self.tensor_bytes,
                        )

            for entry, done in batch:
                self.env.spawn(self._finalize(entry.request, done))

    def _materialize_inputs(self, gpu: Gpu, entries: List[BatchEntry]):
        """Ensure every entry's tensor is resident on ``gpu``."""
        host_entries = [
            e for e in entries if e.gpu is None and e.allocation is None and e.cache_entry is None
        ]
        if host_entries:
            # CPU-preprocessed batch: one gathered copy from the python
            # backend's pageable output buffers.  cudaMemcpyAsync from
            # pageable memory degrades to a synchronous copy, so the
            # transfer also blocks the compute stream — a key reason GPU
            # preprocessing outperforms CPU preprocessing under load.
            nbytes = len(host_entries) * self.tensor_bytes
            start = self.env.now
            with gpu.compute.request(priority=PRIORITY_INFERENCE) as grant:
                yield grant
                yield from gpu.link.transfer(nbytes, H2D, pinned=False)
            end = self.env.now
            elapsed = end - start
            for entry in host_entries:
                entry.request.add(SPAN_TRANSFER, elapsed, now=end)
                entry.allocation = yield from gpu.memory.alloc(self.tensor_bytes)

        # GPU-preprocessed / inference-only path: pin survivors, reload
        # evicted tensors from host memory.  Tensor-cache hits whose
        # entry was pushed out of the pool between lookup and dispatch
        # fall back to the same host reload (paying tensor_bytes).
        evicted = [e for e in entries if e.evicted]
        stale = [
            e for e in entries if e.cache_entry is not None and not e.cache_entry.resident
        ]
        for entry in entries:
            if entry.allocation is not None:
                gpu.memory.pin(entry.allocation)
        if evicted or stale:
            # Spilled working sets live in the pageable host heap, so the
            # reload is a synchronous copy that blocks the stream — the
            # paper's "subsequent reload ... incurs additional latency".
            self.eviction_reloads += len(evicted) + len(stale)
            nbytes = float_sum(self._resident_bytes(e.request.image) for e in evicted)
            nbytes += len(stale) * self.tensor_bytes
            start = self.env.now
            with gpu.compute.request(priority=PRIORITY_INFERENCE) as grant:
                yield grant
                yield from gpu.link.transfer(nbytes, H2D, pinned=False)
            end = self.env.now
            elapsed = end - start
            for entry in evicted:
                entry.request.add(SPAN_TRANSFER, elapsed, now=end)
                entry.allocation = yield from gpu.memory.alloc(
                    self._resident_bytes(entry.request.image)
                )
                entry.evicted = False
            for entry in stale:
                entry.request.add(SPAN_TRANSFER, elapsed, now=end)
                entry.allocation = yield from gpu.memory.alloc(self.tensor_bytes)
                entry.cache_entry = None

    # -- completion -------------------------------------------------------------

    def _finalize(self, request: InferenceRequest, done: Event):
        request.begin(SPAN_POSTPROCESS, self.env.now)
        yield from self.node.cpu.run(self.calibration.cpu.response_overhead_seconds)
        request.end(SPAN_POSTPROCESS, self.env.now)
        request.complete(self.env.now)
        if self.cache is not None and request.served_from != "result":
            self.cache.admit_result(self._result_key(request.image), self.output_bytes)
        self.metrics.record(request)
        if self.on_complete is not None:
            self.on_complete(request)
        done.succeed(request)
