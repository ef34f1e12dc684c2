"""All four runner entry points accept one Workload.

``run_experiment``, ``run_open_loop``, ``run_face_pipeline``, and
``run_fleet_experiment`` all take the same ``Workload`` object; it is
the only way to give an open-loop run its load.  The outputs of the
constant-rate runs are pinned in ``tests/serving/test_open_loop_pins.py``.
"""

import pytest

from repro.apps import FacePipelineConfig
from repro.core import ServerConfig
from repro.serving import ExperimentConfig, run_experiment, run_face_pipeline, run_open_loop
from repro.serving.fleet import run_fleet_experiment
from repro.vision import ImageNetLikeDataset, ZipfDataset, reference_dataset
from repro.vision.datasets import VideoFrameDataset
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)

SMALL = dict(warmup_requests=50, measure_requests=200)


def open_loop_config(**overrides):
    params = dict(server=SERVER, dataset=reference_dataset("medium"),
                  seed=3, **SMALL)
    params.update(overrides)
    return ExperimentConfig(**params)


class TestOpenLoopShim:
    def test_neither_style_rejected(self):
        with pytest.raises(ValueError):
            run_open_loop(open_loop_config())
        with pytest.raises(TypeError):
            run_open_loop(open_loop_config(), 800.0)  # no rate argument

    def test_config_can_carry_the_workload(self):
        explicit = run_open_loop(open_loop_config(),
                                 workload=Workload.constant(800.0))
        via_config = run_open_loop(
            open_loop_config(workload=Workload.constant(800.0)))
        assert explicit.metrics == via_config.metrics

    def test_phase_counts_surface_in_extras(self):
        workload = Workload.diurnal(800.0, swing=0.6, period_seconds=10.0)
        result = run_open_loop(open_loop_config(), workload=workload)
        phase_keys = [key for key in result.metrics.extras
                      if key.startswith("workload_phase_")]
        assert phase_keys  # diurnal arrivals are phase-stamped
        total = sum(result.metrics.extras[key] for key in phase_keys)
        assert total == result.metrics.completed

    def test_legacy_run_has_no_phase_extras(self):
        result = run_open_loop(open_loop_config(),
                               workload=Workload.constant(800.0))
        assert not any(key.startswith("workload_phase_")
                       for key in result.metrics.extras)


class TestClosedLoopWorkload:
    def test_workload_dataset_drives_closed_loop(self):
        dataset = ZipfDataset(ImageNetLikeDataset(), catalog_size=16, skew=1.0)
        direct = run_experiment(
            ExperimentConfig(server=SERVER, dataset=dataset,
                             concurrency=32, seed=1, **SMALL))
        via_workload = run_experiment(
            ExperimentConfig(server=SERVER, concurrency=32, seed=1, **SMALL),
            workload=Workload.constant(1.0, dataset=dataset))
        assert direct.metrics == via_workload.metrics


class TestFleetShim:
    def run(self, **kwargs):
        return run_fleet_experiment(
            SERVER, node_count=2, seed=2, warmup_requests=50,
            measure_requests=200, max_sim_seconds=30.0, **kwargs)

    def test_neither_style_rejected(self):
        with pytest.raises(TypeError):
            self.run()  # workload is a required keyword
        with pytest.raises(TypeError):
            self.run(offered_rate=2000.0)

    def test_flash_workload_runs_and_labels_rate(self):
        workload = Workload.flash_crowd(
            2000.0, bursts=[(5.0, 5.0, 2.0)], duration_seconds=20.0)
        result = self.run(workload=workload)
        assert result.offered_rate == pytest.approx(
            workload.offered_rate_hint())
        assert result.metrics.completed > 0


class TestFacePipelineShim:
    def run(self, **kwargs):
        return run_face_pipeline(
            FacePipelineConfig(), concurrency=16, seed=1,
            warmup_requests=30, measure_requests=120, **kwargs)

    def test_result_records_the_workload(self):
        workload = Workload.constant(1.0, dataset=VideoFrameDataset())
        result = self.run(workload=workload)
        assert result.config.workload is workload


class TestOneWorkloadEverywhere:
    def test_single_workload_accepted_by_all_four_entry_points(self):
        dataset = ZipfDataset(ImageNetLikeDataset(), catalog_size=16, skew=0.9)
        workload = Workload.diurnal(1500.0, swing=0.5, period_seconds=20.0,
                                    dataset=dataset)
        closed = run_experiment(
            ExperimentConfig(server=SERVER, concurrency=16, seed=0, **SMALL),
            workload=workload)
        open_loop = run_open_loop(
            ExperimentConfig(server=SERVER, seed=0, **SMALL),
            workload=workload)
        faces = run_face_pipeline(
            FacePipelineConfig(), concurrency=16, seed=0,
            warmup_requests=30, measure_requests=120, workload=workload)
        fleet = run_fleet_experiment(
            SERVER, node_count=2, seed=0, warmup_requests=50,
            measure_requests=200, max_sim_seconds=30.0, workload=workload)
        for result in (closed, open_loop, faces):
            assert result.metrics.completed > 0
        assert fleet.metrics.completed > 0
