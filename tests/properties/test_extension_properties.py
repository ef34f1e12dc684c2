"""Property-based tests for the extension subsystems."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import DEFAULT_CALIBRATION
from repro.vision.video import (
    Video,
    keyframe_sample_indices,
    uniform_sample_indices,
    video_decode_cost,
)

CAL = DEFAULT_CALIBRATION


@st.composite
def videos(draw):
    return Video(
        width=draw(st.integers(min_value=64, max_value=3840)),
        height=draw(st.integers(min_value=64, max_value=2160)),
        fps=draw(st.sampled_from([24.0, 30.0, 60.0])),
        duration_seconds=draw(st.floats(min_value=0.5, max_value=60.0,
                                        allow_nan=False, allow_infinity=False)),
        bitrate_bps=draw(st.floats(min_value=1e5, max_value=5e7,
                                   allow_nan=False, allow_infinity=False)),
        gop_frames=draw(st.integers(min_value=1, max_value=300)),
    )


@given(video=videos(), count=st.integers(min_value=1, max_value=64))
@settings(max_examples=80, deadline=None)
def test_video_sampling_invariants(video, count):
    """Samples are in bounds, sorted, and decode work is consistent."""
    samples = uniform_sample_indices(video, count)
    assert 1 <= len(samples) <= min(count, video.frame_count)
    indices = [s.index for s in samples]
    assert indices == sorted(indices)
    for sample in samples:
        assert 0 <= sample.keyframe_index <= sample.index < video.frame_count
        assert sample.keyframe_index % video.gop_frames == 0
        assert 1 <= sample.frames_to_decode <= video.gop_frames


@given(video=videos(), count=st.integers(min_value=1, max_value=32))
@settings(max_examples=60, deadline=None)
def test_video_decode_cost_invariants(video, count):
    """Decoded frames are bounded by the clip; keyframe sampling never
    costs more than uniform sampling of the same count."""
    uniform = video_decode_cost(video, uniform_sample_indices(video, count), CAL)
    keyed = video_decode_cost(video, keyframe_sample_indices(video, count), CAL)
    assert 0 < uniform.decoded_frames <= video.frame_count
    assert uniform.decoded_frames >= uniform.sampled_frames
    assert keyed.total_seconds <= uniform.total_seconds * 1.0001
    assert keyed.amplification == 1.0
