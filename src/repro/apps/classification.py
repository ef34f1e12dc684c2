"""Convenience wrappers for single-DNN classification serving experiments.

These helpers wrap :func:`repro.serving.runner.run_experiment` with the
configurations the paper uses repeatedly: a throughput-optimized
TensorRT deployment of one model, driven closed-loop at some
concurrency with one of the reference image sizes.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import ServerConfig
from ..serving.runner import ExperimentConfig, RunResult, run_experiment
from ..telemetry import TelemetryConfig
from ..vision.datasets import Dataset, reference_dataset

__all__ = ["serve_classification", "zero_load_breakdown"]


def serve_classification(
    model: str = "vit-base-16",
    preprocess_device: str = "gpu",
    image_size: str = "medium",
    concurrency: int = 512,
    gpu_count: int = 1,
    dataset: Optional[Dataset] = None,
    runtime: str = "tensorrt",
    seed: int = 0,
    measure_requests: int = 2000,
    telemetry: Optional[TelemetryConfig] = None,
    **server_overrides,
) -> RunResult:
    """Run one throughput-optimized classification serving experiment.

    ``telemetry`` records the run (e.g. span timelines for
    :meth:`~repro.telemetry.session.TelemetrySession.write_trace`) on
    ``RunResult.telemetry``.
    """
    server = ServerConfig(
        model=model,
        runtime=runtime,
        preprocess_device=preprocess_device,
        preprocess_batch_size=64,
        **server_overrides,
    )
    config = ExperimentConfig(
        server=server,
        dataset=dataset if dataset is not None else reference_dataset(image_size),
        concurrency=concurrency,
        gpu_count=gpu_count,
        seed=seed,
        warmup_requests=max(300, concurrency // 2),
        measure_requests=max(measure_requests, 2 * concurrency),
        telemetry=telemetry,
    )
    return run_experiment(config)


def zero_load_breakdown(
    model: str = "vit-base-16",
    preprocess_device: str = "cpu",
    image_size: str = "medium",
    seed: int = 0,
) -> RunResult:
    """Zero-load (concurrency 1) latency breakdown run (Fig. 6 setting)."""
    server = ServerConfig(model=model, preprocess_device=preprocess_device)
    config = ExperimentConfig(
        server=server,
        dataset=reference_dataset(image_size),
        concurrency=1,
        warmup_requests=20,
        measure_requests=200,
        seed=seed,
    )
    return run_experiment(config)
