"""Pinned outputs of the open-loop load path.

Each run has two pins.  The first is a SHA-256 over its per-request
latencies (as ``repr``), ``completed`` and ``window_seconds``; fleet
runs add the per-node dispatch counts, the peak balancer backlog and
the fault count.  The second is a SHA-256 over its whole ``to_dict()``
row, floats by ``repr``, so means, span breakdowns, utilizations and
energy are pinned too.  Any change to ``Workload`` -> ``ArrivalSource``
-> ``WorkloadClient``, or to the runners around it, that moves one
latency, counter or derived figure breaks a pin.

Both pins hold on CPython 3.10 to 3.13: float totals add left to right
(:func:`repro.sim.sums.float_sum`), not with the compensated built-in
``sum()`` of 3.12+, which would move the last digit of the means.
"""

import hashlib
import json

from repro.apps import FacePipelineConfig
from repro.core import ServerConfig
from repro.faults import gpu_crash_plan
from repro.serving import ExperimentConfig, run_face_pipeline, run_open_loop
from repro.serving.fleet import run_fleet_experiment
from repro.vision import reference_dataset
from repro.vision.datasets import VideoFrameDataset
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)


def _digest(metrics, *extra) -> str:
    digest = hashlib.sha256()
    for latency in metrics.latencies:
        digest.update(repr(latency).encode())
        digest.update(b",")
    digest.update(repr((metrics.completed, metrics.window_seconds, *extra)).encode())
    return digest.hexdigest()


def _row_digest(result) -> str:
    text = json.dumps(result.to_dict(), sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _fleet_digest(result) -> str:
    return _digest(result.metrics, tuple(result.dispatched_per_node),
                   result.peak_backlog, result.fault_count)


def _fleet_run(rate: float):
    return run_fleet_experiment(
        SERVER, node_count=2, workload=Workload.constant(rate), seed=2,
        warmup_requests=50, measure_requests=200, max_sim_seconds=30.0,
    )


def test_open_loop_pin():
    result = run_open_loop(
        ExperimentConfig(server=SERVER, dataset=reference_dataset("medium"),
                         seed=3, warmup_requests=50, measure_requests=200),
        workload=Workload.constant(800.0),
    )
    assert result.metrics.completed == 192
    assert _digest(result.metrics) == (
        "5638b00649e11a68b037179b11892ff88ee26f7ff2c3a287e31c32ea1b29cff7")
    assert _row_digest(result) == (
        "f4a88342b4a0bc6dec6dc309fe1c183123de9355337e66f634068a2a516f25e7")


def test_fleet_pin_with_backlog():
    result = _fleet_run(2000.0)
    assert result.peak_backlog == 39
    assert result.dispatched_per_node == [553, 571]
    assert _fleet_digest(result) == (
        "0468c4bec55469cddbd56ece47d7fb893750e2c1c94b1c4081a67e4cb85a4e58")
    assert _row_digest(result) == (
        "cd7f4760597284b6ad8ca73d428b623dcb3690427db230c811da2bfbd6c99c86")


def test_fleet_pin_without_backlog():
    # Every request goes straight to an idle dispatcher, so nothing ever
    # waits in the balancer queue.
    result = _fleet_run(100.0)
    assert result.peak_backlog == 0
    assert result.dispatched_per_node == [190, 60]
    assert _fleet_digest(result) == (
        "bf90e54d5c771801e6b603ef1e9ccc728691f6672c972cae8c142561fdae4794")
    assert _row_digest(result) == (
        "cf11199a7be22852093a314c2472ce1c62d76c30888370990b3a2bb8105d801a")


def test_fault_experiment_pin():
    result = run_fleet_experiment(
        SERVER, faults=gpu_crash_plan(0.02), node_count=2,
        workload=Workload.constant(150.0, dataset=reference_dataset("medium")),
        seed=0, warmup_requests=200, measure_requests=800,
    )
    assert result.metrics.completed == 800
    assert _fleet_digest(result) == (
        "a8839d5eccfcd5c661f9163e46fdc72bcdc54c73ed38c98b316f9c6d182fa3f9")
    assert _row_digest(result) == (
        "d142857a7722886a2f7b35710c18601ee9dc28658e0290ae3667fec58ed76937")


def test_face_pipeline_pin():
    result = run_face_pipeline(
        FacePipelineConfig(), concurrency=16, seed=1,
        warmup_requests=30, measure_requests=120,
        workload=Workload.constant(1.0, dataset=VideoFrameDataset()),
    )
    assert result.metrics.completed == 119
    assert _digest(result.metrics) == (
        "4e3ec0156c9161fa02f8459b34e12d381e495a85792811c48748857a3768d81c")
    assert _row_digest(result) == (
        "4571ca22493a8af8923d0417f2aa22bba090f5e8a8182e1983a9aea3bd50216b")
