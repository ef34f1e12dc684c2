"""The un-served baseline of the Fig. 3 software ladder.

Paper Sec. 2.3: "we start with the PyTorch model downloaded directly
from HuggingFace and we run it without any serving software, just a
Python loop that decompresses JPEG images one-by-one, followed by
batched DNN inference" (~431 img/s for ViT-base), then swap the
preprocessing for DALI on the CPU (~446 img/s) and DALI on the GPU
(~842 img/s).

All three variants share the same synchronous structure — preprocess a
batch, move it to the GPU, run inference, fetch results — with *no*
overlap between stages, which is exactly why serving software wins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.gpu import PRIORITY_INFERENCE
from ..hardware.pcie import D2H, H2D
from ..hardware.platform import ServerNode
from ..models.dnn import inference_latency
from ..models.runtimes import get_runtime
from ..models.zoo import get_model
from ..kernel import ExecutionBackend, RandomStreams, VirtualTimeBackend
from ..sim.sums import float_sum
from ..vision.datasets import Dataset
from ..vision.ops import cpu_preprocess_cost, gpu_preprocess_cost

__all__ = ["NaiveLoopConfig", "NaiveLoopResult", "run_naive_loop"]

_PREPROCESS_MODES = ("python", "dali-cpu", "dali-gpu")

#: Python interpreter overhead per image in the hand-written loop
#: (PIL open, list handling, tensor conversion).
PYTHON_PER_IMAGE_SECONDS = 0.15e-3
#: DALI's CPU pipeline removes the PIL/python per-image overhead but the
#: paper's configuration ran it with a single worker thread (default),
#: which is why the gain over the raw loop is small (431 -> 446 img/s).
DALI_CPU_THREADS = 1


@dataclass(frozen=True)
class NaiveLoopConfig:
    """One rung of the un-served part of the ladder."""

    model: str = "vit-base-16"
    runtime: str = "pytorch"
    preprocess: str = "python"  # python | dali-cpu | dali-gpu
    batch_size: int = 64
    batches: int = 50

    def __post_init__(self) -> None:
        if self.preprocess not in _PREPROCESS_MODES:
            raise ValueError(
                f"preprocess must be one of {_PREPROCESS_MODES}, got {self.preprocess!r}"
            )
        if self.batch_size < 1 or self.batches < 1:
            raise ValueError("batch_size and batches must be >= 1")


@dataclass(frozen=True)
class NaiveLoopResult:
    """Measured behaviour of the loop."""

    throughput: float  # images / second
    seconds_per_batch: float
    preprocess_seconds_per_batch: float
    inference_seconds_per_batch: float
    transfer_seconds_per_batch: float


def run_naive_loop(
    config: NaiveLoopConfig,
    dataset: Dataset,
    seed: int = 0,
) -> NaiveLoopResult:
    """Simulate the synchronous loop and return its throughput."""
    env = VirtualTimeBackend()
    streams = RandomStreams(seed)
    node = ServerNode(env, gpu_count=1)
    gpu = node.gpus[0]
    model = get_model(config.model)
    runtime = get_runtime(config.runtime)
    calibration = node.calibration
    tensor_bytes = model.input_size * model.input_size * 3 * 4
    rng = streams.stream("naive-loop")

    totals = {"preprocess": 0.0, "inference": 0.0, "transfer": 0.0}

    def loop():
        batch_latency = inference_latency(model, runtime, config.batch_size, calibration)
        for _ in range(config.batches):
            images = [dataset.sample(rng) for _ in range(config.batch_size)]

            # --- preprocessing ------------------------------------------------
            start = env.now
            if config.preprocess == "python":
                for image in images:
                    cost = cpu_preprocess_cost(image, model.input_size, calibration)
                    work = (
                        cost.decode_seconds
                        + cost.resize_seconds
                        + cost.normalize_seconds
                        + PYTHON_PER_IMAGE_SECONDS
                    )
                    yield from node.cpu.run(work)
            elif config.preprocess == "dali-cpu":
                # Batched decode across the pipeline's worker threads,
                # still synchronous with inference.
                per_image = [
                    cpu_preprocess_cost(image, model.input_size, calibration)
                    for image in images
                ]
                total_core_seconds = float_sum(
                    c.decode_seconds + c.resize_seconds + c.normalize_seconds
                    for c in per_image
                )
                yield from node.cpu.run(total_core_seconds / DALI_CPU_THREADS)
            else:  # dali-gpu
                # DALI's python iterator still costs interpreter time per
                # sample (feed_ndarray, queue management).
                yield from node.cpu.run(
                    config.batch_size * PYTHON_PER_IMAGE_SECONDS
                )
                costs = [
                    gpu_preprocess_cost(image, model.input_size, calibration)
                    for image in images
                ]
                # Host staging across the DALI thread pool.
                staging_jobs = [
                    env.process(_stage(env, node, c.staging_seconds)) for c in costs
                ]
                yield env.all_of(staging_jobs)
                compressed = sum(image.compressed_bytes for image in images)
                yield from gpu.link.transfer(compressed, H2D, pinned=True)
                kernel = calibration.gpu.preprocess_launch_seconds + float_sum(
                    c.kernel_seconds for c in costs
                )
                yield from gpu.execute(kernel)
            totals["preprocess"] += env.now - start

            # --- input transfer (skipped for dali-gpu: already resident) -------
            start = env.now
            if config.preprocess != "dali-gpu":
                yield from gpu.link.transfer(
                    config.batch_size * tensor_bytes, H2D, pinned=False
                )
            totals["transfer"] += env.now - start

            # --- inference + synchronous result fetch ---------------------------
            start = env.now
            yield from gpu.execute(batch_latency, priority=PRIORITY_INFERENCE)
            totals["inference"] += env.now - start
            start = env.now
            yield from gpu.link.transfer(config.batch_size * 4000, D2H, pinned=False)
            totals["transfer"] += env.now - start

    done = env.process(loop())
    env.run(until=done)

    images = config.batch_size * config.batches
    elapsed = env.now
    return NaiveLoopResult(
        throughput=images / elapsed,
        seconds_per_batch=elapsed / config.batches,
        preprocess_seconds_per_batch=totals["preprocess"] / config.batches,
        inference_seconds_per_batch=totals["inference"] / config.batches,
        transfer_seconds_per_batch=totals["transfer"] / config.batches,
    )


def _stage(env: ExecutionBackend, node: ServerNode, seconds: float):
    with node.staging.request() as grant:
        yield grant
        yield env.timeout(seconds)
