"""Determinism: same seed => byte-identical results.

Two layers of guarantee, both required by the parallel executor:

- **Repeatability**: running the same experiment twice in one process
  yields byte-identical ``to_dict()`` output (the simulation is a pure
  function of its config).
- **Serial/parallel identity**: fanning points across pool workers
  changes nothing — every worker computes exactly what the parent would
  have computed serially.
"""

import json

from repro.apps import FacePipelineConfig
from repro.core.config import ServerConfig
from repro.faults import sweep_fault_rates
from repro.parallel import (
    ExperimentPoint,
    ParallelConfig,
    run_experiment_point,
    run_sweep,
)
from repro.serving.runner import (
    FACE_THINK_JITTER_SECONDS,
    ExperimentConfig,
    run_experiment,
    run_face_pipeline,
    run_open_loop,
)
from repro.vision import reference_dataset
from repro.workload import Workload


def _closed_loop_config(seed=7):
    return ExperimentConfig(
        server=ServerConfig(preprocess_batch_size=8),
        concurrency=8,
        warmup_requests=20,
        measure_requests=120,
        seed=seed,
    )


def _canonical(result_dict):
    """Byte-level canonical form of a result row."""
    return json.dumps(result_dict, sort_keys=True).encode()


class TestRepeatability:
    def test_closed_loop_same_seed_same_bytes(self):
        first = run_experiment(_closed_loop_config())
        second = run_experiment(_closed_loop_config())
        assert _canonical(first.to_dict()) == _canonical(second.to_dict())

    def test_open_loop_different_seed_differs(self):
        """The guarantee is repeatability, not insensitivity: changing
        the seed perturbs the stochastic arrival process."""
        workload = Workload.constant(200.0)
        first = run_open_loop(_closed_loop_config(seed=7), workload=workload)
        second = run_open_loop(_closed_loop_config(seed=8), workload=workload)
        assert _canonical(first.to_dict()) != _canonical(second.to_dict())

    def test_open_loop_same_seed_same_bytes(self):
        config = _closed_loop_config()
        first = run_open_loop(config, workload=Workload.constant(200.0))
        second = run_open_loop(config, workload=Workload.constant(200.0))
        assert _canonical(first.to_dict()) == _canonical(second.to_dict())

    def test_face_pipeline_same_seed_same_bytes(self):
        kwargs = dict(
            concurrency=16,
            warmup_requests=20,
            measure_requests=80,
            seed=3,
        )
        first = run_face_pipeline(FacePipelineConfig(), **kwargs)
        second = run_face_pipeline(FacePipelineConfig(), **kwargs)
        assert _canonical(first.to_dict()) == _canonical(second.to_dict())


class TestSerialParallelIdentity:
    def test_closed_and_open_loop_points(self):
        points = [
            ExperimentPoint(config=_closed_loop_config(seed=s), workload=workload)
            for s in (0, 1)
            for workload in (None, Workload.constant(150.0))
        ]
        serial = run_sweep(
            run_experiment_point, points, ParallelConfig(serial=True)
        )
        pooled = run_sweep(run_experiment_point, points, ParallelConfig(workers=2))
        assert pooled.mode == "parallel"
        assert [_canonical(row) for row in serial.values] == [
            _canonical(row) for row in pooled.values
        ]

    def test_face_pipeline_points(self):
        points = [
            ExperimentPoint(config=ExperimentConfig(
                server=FacePipelineConfig(broker=broker),
                concurrency=16,
                warmup_requests=20,
                measure_requests=60,
                seed=1,
                think_jitter_seconds=FACE_THINK_JITTER_SECONDS,
            ))
            for broker in ("fused", "redis")
        ]
        serial = run_sweep(
            run_experiment_point, points, ParallelConfig(serial=True)
        )
        pooled = run_sweep(
            run_experiment_point, points, ParallelConfig(workers=2)
        )
        assert [_canonical(row) for row in serial.values] == [
            _canonical(row) for row in pooled.values
        ]

    def test_fault_sweep_points(self):
        """Bound fleet runs cross the process boundary and come back as
        the full results the serial sweep computes."""

        def sweep(workers):
            return sweep_fault_rates(
                ServerConfig(preprocess_batch_size=8),
                downtime_fractions=(0.2,),
                restart_seconds=0.1,
                workers=workers,
                node_count=2,
                workload=Workload.constant(150, dataset=reference_dataset("medium")),
                warmup_requests=50,
                measure_requests=300,
                max_sim_seconds=20.0,
                seed=1,
            )

        serial = sweep(None)
        assert serial[0].result.fault_count > 0
        assert sweep(2) == serial
