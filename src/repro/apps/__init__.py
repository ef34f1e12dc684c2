"""Application pipelines: classification serving, naive loop, face pipeline."""

from .classification import serve_classification, zero_load_breakdown
from .face_pipeline import SPAN_BROKER, SPAN_IDENTIFY, FacePipeline, FacePipelineConfig
from .naive_loop import NaiveLoopConfig, NaiveLoopResult, run_naive_loop
from .video_classification import VideoClassificationServer, VideoServerConfig

__all__ = [
    "FacePipeline",
    "FacePipelineConfig",
    "NaiveLoopConfig",
    "NaiveLoopResult",
    "SPAN_BROKER",
    "SPAN_IDENTIFY",
    "VideoClassificationServer",
    "VideoServerConfig",
    "run_naive_loop",
    "serve_classification",
    "zero_load_breakdown",
]
