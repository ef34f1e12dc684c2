"""The work one canonical run does, pinned as an exact event count.

Wall-clock gates cannot see a 10% slowdown on a noisy host, but the
number of events a deterministic run schedules repeats exactly, so a
change that makes the simulator do more (or less) work per request
fails here.  A model change that legitimately alters the count re-pins
these numbers and says so in its description.
"""

import pytest

import repro.serving.runner as runner_module
from repro.core import ServerConfig
from repro.serving import ExperimentConfig, run_experiment, run_fleet_experiment
from repro.sim import Environment
from repro.vision import reference_dataset
from repro.workload import Workload


@pytest.mark.parametrize("device, events", [("cpu", 2816), ("gpu", 3433)])
def test_closed_loop_event_count(device, events):
    env = Environment()
    config = ExperimentConfig(
        server=ServerConfig(
            model="resnet-50", preprocess_batch_size=64, preprocess_device=device),
        dataset=reference_dataset("medium"),
        concurrency=16,
        seed=0,
        warmup_requests=20,
        measure_requests=100,
    )
    run_experiment(config, backend=env)
    # Every event ever scheduled (timeouts, grants, process exits, ...).
    assert env._eid == events


@pytest.mark.parametrize("rate, events", [(100.0, 10478), (2000.0, 27309)])
def test_fleet_event_count(rate, events, monkeypatch):
    envs = []

    class RecordingBackend(runner_module.VirtualTimeBackend):
        def __init__(self):
            super().__init__()
            envs.append(self)

    monkeypatch.setattr(runner_module, "VirtualTimeBackend", RecordingBackend)
    run_fleet_experiment(
        ServerConfig(), 2, workload=Workload.constant(rate), seed=2,
        warmup_requests=50, measure_requests=200,
    )
    # Resolutions reach the runner through a callback on each request's
    # done event; a watcher process per request would add its start and
    # exit events (10978 and 28816).
    (env,) = envs
    assert env._eid == events
