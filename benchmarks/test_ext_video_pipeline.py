"""Extension — the paper's Sec. 1 video-classification scenario.

"A video classification service receives the video in a compressed
format like MPEG, decodes the video, samples a number of frames, then
resizes and normalizes the resulting images into the format required
by the DNN."  This benchmark executes that pipeline end to end and
quantifies how much *more* preprocessing-dominated video serving is
than image serving, plus the GOP amplification that makes sparse frame
sampling expensive.
"""

import pytest

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


def _run_video(frames_per_clip, concurrency=32, clips=400):
    return run_experiment(ExperimentConfig(
        server=VideoServerConfig(frames_per_clip=frames_per_clip),
        dataset=VideoClipDataset(mean_duration_seconds=6.0),
        concurrency=concurrency,
        warmup_requests=60,
        measure_requests=clips,
        max_sim_seconds=300.0,
    )).metrics


def run_video_study():
    data = {"serving": {}, "gop": {}}
    for frames in (4, 8, 16):
        data["serving"][frames] = _run_video(frames)
    # GOP amplification: uniform vs keyframe-aligned sampling.
    clip = VideoClipDataset(mean_duration_seconds=8.0).sample(
        RandomStreams(0).stream("gop")
    )
    for label, sampler in (("uniform", uniform_sample_indices),
                           ("keyframe-aligned", keyframe_sample_indices)):
        cost = video_decode_cost(clip, sampler(clip, 8), DEFAULT_CALIBRATION)
        data["gop"][label] = cost
    return data


@pytest.mark.figure("ext-video")
def test_ext_video_pipeline(run_once):
    data = run_once(run_video_study)

    print(
        "\n"
        + format_table(
            ["frames/clip", "clips/s", "mean latency", "preproc share", "DNN share"],
            [
                [
                    str(frames),
                    f"{m.throughput:.1f}",
                    f"{m.latency.mean * 1e3:.0f} ms",
                    f"{m.span_fraction('preprocess') * 100:.0f}%",
                    f"{m.span_fraction('inference') * 100:.0f}%",
                ]
                for frames, m in data["serving"].items()
            ],
            title="Extension — video classification serving (720p clips)",
        )
    )
    for label, cost in data["gop"].items():
        print(f"  {label:17s}: {cost.decoded_frames} frames decoded for "
              f"{cost.sampled_frames} samples "
              f"({cost.amplification:.1f}x, {cost.total_seconds * 1e3:.0f} ms CPU)")

    # Video serving is even more overhead-dominated than image serving.
    for metrics in data["serving"].values():
        assert metrics.span_fraction("preprocess") > 0.5
        assert metrics.span_fraction("inference") < 0.2

    # More sampled frames -> lower clip throughput.
    rates = [m.throughput for m in data["serving"].values()]
    assert rates[0] > rates[1] > rates[2]

    # The GOP tax: uniform sampling decodes several frames per sample;
    # keyframe-aligned sampling avoids it.
    uniform = data["gop"]["uniform"]
    keyed = data["gop"]["keyframe-aligned"]
    assert uniform.amplification > 3
    assert keyed.amplification == pytest.approx(1.0)
    assert keyed.total_seconds < uniform.total_seconds / 3
