"""repro — a faithful, calibrated simulation reproduction of

    "Beyond Inference: Performance Analysis of DNN Server Overheads
     for Computer Vision" (DAC 2024).

The package implements the paper's entire measurement stack from
scratch as a deterministic discrete-event simulation: the server
platform (CPU / GPU / PCIe / device memory / energy), the vision
preprocessing substrate (JPEG decode, resize, normalize on either
device), a Triton-like serving system (dynamic batching, instances,
stage isolation), load generation, message brokers (Kafka-like,
Redis-like, fused), and the multi-DNN face-identification pipeline.

Quickstart::

    from repro import serve_classification

    result = serve_classification(model="resnet-50",
                                  preprocess_device="gpu",
                                  image_size="medium")
    print(result.throughput, "img/s")
    print(result.metrics.span_fractions)

Every figure in the paper's evaluation has a regenerating benchmark
under ``benchmarks/``; see ``DESIGN.md`` for the experiment index and
``EXPERIMENTS.md`` for paper-vs-measured results.
"""

from .analysis import ClaimSet, LatencyBreakdown, breakdown_from_metrics, cache_summary, format_table
from .cache import CacheConfig, CacheHierarchy, CacheStats, CacheTier
from .apps import (
    FacePipeline,
    FacePipelineConfig,
    NaiveLoopConfig,
    run_naive_loop,
    serve_classification,
    zero_load_breakdown,
)
from .core import (
    DynamicBatcher,
    InferenceRequest,
    InferenceServer,
    MetricsCollector,
    RunMetrics,
    ServerConfig,
)
from .core.tuner import TuningResult, tune_server
from .faults import (
    BrokerFault,
    FaultInjector,
    FaultPlan,
    GpuCrash,
    NodeOutage,
    PcieThrottle,
    SlowNode,
    gpu_crash_plan,
    sweep_fault_rates,
)
from .hardware import DEFAULT_CALIBRATION, Calibration, ServerNode
from .models import MODEL_ZOO, ModelSpec, get_model, inference_latency
from .serving import (
    BreakerPolicy,
    ExperimentConfig,
    ResiliencePolicy,
    RetryPolicy,
    RunResult,
    run_experiment,
    run_face_pipeline,
)
from .kernel import (
    AsyncioBackend,
    ExecutionBackend,
    VirtualTimeBackend,
    run_until,
)
from .sim import Environment, RandomStreams
from .telemetry import (
    MetricsRegistry,
    SloConfig,
    SloTracker,
    TelemetryConfig,
    TelemetrySession,
    Tracer,
)
from .vision import (
    LARGE_IMAGE,
    MEDIUM_IMAGE,
    SMALL_IMAGE,
    Image,
    ImageNetLikeDataset,
    ZipfDataset,
    reference_dataset,
)
from .workload import (
    DiurnalCurve,
    FlashCrowd,
    MarkovSessionModel,
    RegionalMix,
    Workload,
    synthesize_trace,
    trace_digest,
)

__version__ = "1.0.0"

__all__ = [
    "BreakerPolicy",
    "BrokerFault",
    "CacheConfig",
    "CacheHierarchy",
    "CacheStats",
    "CacheTier",
    "Calibration",
    "ClaimSet",
    "FaultInjector",
    "FaultPlan",
    "GpuCrash",
    "NodeOutage",
    "PcieThrottle",
    "ResiliencePolicy",
    "RetryPolicy",
    "SlowNode",
    "gpu_crash_plan",
    "sweep_fault_rates",
    "AsyncioBackend",
    "DEFAULT_CALIBRATION",
    "DynamicBatcher",
    "Environment",
    "ExecutionBackend",
    "run_until",
    "VirtualTimeBackend",
    "ExperimentConfig",
    "FacePipeline",
    "FacePipelineConfig",
    "Image",
    "ImageNetLikeDataset",
    "InferenceRequest",
    "InferenceServer",
    "LARGE_IMAGE",
    "LatencyBreakdown",
    "MEDIUM_IMAGE",
    "MODEL_ZOO",
    "MetricsCollector",
    "MetricsRegistry",
    "ModelSpec",
    "NaiveLoopConfig",
    "RandomStreams",
    "RunMetrics",
    "RunResult",
    "SMALL_IMAGE",
    "ServerConfig",
    "ServerNode",
    "SloConfig",
    "SloTracker",
    "TelemetryConfig",
    "TelemetrySession",
    "Tracer",
    "TuningResult",
    "Workload",
    "DiurnalCurve",
    "FlashCrowd",
    "MarkovSessionModel",
    "RegionalMix",
    "synthesize_trace",
    "trace_digest",
    "ZipfDataset",
    "breakdown_from_metrics",
    "cache_summary",
    "format_table",
    "get_model",
    "inference_latency",
    "reference_dataset",
    "run_experiment",
    "run_face_pipeline",
    "run_naive_loop",
    "serve_classification",
    "tune_server",
    "zero_load_breakdown",
    "__version__",
]
