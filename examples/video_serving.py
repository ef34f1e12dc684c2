#!/usr/bin/env python3
"""Serve video classification — the paper's Sec. 1 motivating scenario.

Drives the MPEG-decode -> frame-sample -> preprocess -> DNN pipeline
closed-loop, then shows (a) how much more preprocessing-dominated video
serving is than image serving, and (b) the GOP amplification that makes
uniformly-sampled frames expensive compared to keyframe-aligned
sampling.

Run:  python examples/video_serving.py [frames_per_clip]
"""

import sys

from repro.analysis import format_table
from repro.apps import VideoServerConfig
from repro.hardware import DEFAULT_CALIBRATION
from repro.serving import ExperimentConfig, run_experiment
from repro.sim import RandomStreams
from repro.vision import (
    VideoClipDataset,
    keyframe_sample_indices,
    uniform_sample_indices,
    video_decode_cost,
)


def serve(frames_per_clip: int):
    return run_experiment(ExperimentConfig(
        server=VideoServerConfig(frames_per_clip=frames_per_clip),
        dataset=VideoClipDataset(mean_duration_seconds=6.0),
        concurrency=32,
        warmup_requests=60,
        measure_requests=400,
        max_sim_seconds=300.0,
    )).metrics


def main() -> None:
    frames = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    metrics = serve(frames)

    print(
        format_table(
            ["metric", "value"],
            [
                ["clips/s", f"{metrics.throughput:.1f}"],
                ["frames/s", f"{metrics.throughput * frames:.0f}"],
                ["mean clip latency", f"{metrics.latency.mean * 1e3:.0f} ms"],
                ["p99 clip latency", f"{metrics.latency.p99 * 1e3:.0f} ms"],
                ["decode+preprocess share", f"{metrics.span_fraction('preprocess') * 100:.0f}%"],
                ["DNN share", f"{metrics.span_fraction('inference') * 100:.0f}%"],
            ],
            title=f"Video classification — 720p clips, {frames} frames sampled per clip",
        )
    )

    clip = VideoClipDataset(mean_duration_seconds=8.0).sample(
        RandomStreams(0).stream("demo")
    )
    print("\nThe GOP tax (one 8 s 720p clip, 8 sampled frames):")
    for label, sampler in (("uniform sampling", uniform_sample_indices),
                           ("keyframe-aligned", keyframe_sample_indices)):
        cost = video_decode_cost(clip, sampler(clip, 8), DEFAULT_CALIBRATION)
        print(f"  {label:17s}: decode {cost.decoded_frames:3d} frames "
              f"({cost.amplification:.1f}x amplification) "
              f"= {cost.total_seconds * 1e3:.0f} ms CPU")
    print("\nInter-coded video cannot be random-accessed: sampling mid-GOP")
    print("frames decodes the whole lead-in. Aligning samples to keyframes")
    print("trades temporal coverage for a large preprocessing saving — an")
    print("optimization entirely outside the DNN, which is the paper's point.")


if __name__ == "__main__":
    main()
