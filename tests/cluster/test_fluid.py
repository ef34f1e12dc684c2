"""The fluid model's zero-load probes: one per distinct image per shard.

A cold cell serves its fluid requests at the zero-load profile of its
first arrival's image.  The probe is a pure function of that image and
the shard's node configuration, so each shard probes every distinct
image once and cells with equal first images share the result.
"""

import pytest

import repro.cluster.fluid as fluid
from repro.cluster import (
    SPAN_NETWORK,
    FluidCellModel,
    ZeroLoadProfiles,
)
from repro.hardware.calibration import DEFAULT_CALIBRATION
from repro.vision.image import Image

from .test_day import SERVER, TEN_K, run_day


@pytest.fixture
def probe_calls(monkeypatch):
    """Count every zero-load probe the run makes."""
    calls = []
    probe = fluid.zero_load_profile

    def counting(image, *args):
        calls.append(image)
        return probe(image, *args)

    monkeypatch.setattr(fluid, "zero_load_profile", counting)
    return calls


def test_golden_day_probes_each_distinct_image_once(probe_calls):
    result = run_day(TEN_K)
    # 137 cold cells are touched, but the day draws from a small catalog.
    assert len(probe_calls) == 16
    assert len(set(probe_calls)) == 16
    assert result.fluid_served == 1478
    assert result.completed == 1639


def test_probing_every_cell_gives_the_same_metrics(monkeypatch, probe_calls):
    shared = run_day(TEN_K)

    def probe_every_cell(self, image):
        return fluid.zero_load_profile(
            image, self.server_config, self.calibration, self.gpu_count)

    monkeypatch.setattr(ZeroLoadProfiles, "profile", probe_every_cell)
    del probe_calls[:]
    per_cell = run_day(TEN_K)
    assert len(probe_calls) == 137
    assert per_cell.metrics == shared.metrics
    assert per_cell.fluid_served == shared.fluid_served


def _cell(profiles):
    return FluidCellModel(profiles, hot_threshold=8, hot_window_seconds=1.0)


def test_cells_with_equal_first_images_share_one_probe(probe_calls):
    profiles = ZeroLoadProfiles(SERVER, DEFAULT_CALIBRATION, 1)
    first, second = _cell(profiles), _cell(profiles)
    image = Image(width=500, height=375, compressed_bytes=110_000)
    equal = Image(width=500, height=375, compressed_bytes=110_000)
    assert image is not equal

    latency, spans, batch = first.serve(image)
    spans[SPAN_NETWORK] = 0.002  # as CellRuntime._fluid_complete does
    other_latency, other_spans, other_batch = second.serve(equal)

    assert probe_calls == [image]
    assert (other_latency, other_batch) == (latency, batch)
    assert SPAN_NETWORK not in other_spans
    assert SPAN_NETWORK not in profiles.profile(image)[1]
    assert first.serve(image)[1] == other_spans


def test_a_cell_serves_every_request_at_its_first_image(probe_calls):
    """A recorded modelling defect, kept as is: later requests with
    other images still get the first image's latency.  Fixing it
    changes the pinned cluster outputs."""
    profiles = ZeroLoadProfiles(SERVER, DEFAULT_CALIBRATION, 1)
    cell = _cell(profiles)
    small = Image(width=100, height=80, compressed_bytes=4_000)
    large = Image(width=3000, height=2400, compressed_bytes=2_000_000)

    assert cell.serve(small) == cell.serve(large)
    assert probe_calls == [small]
