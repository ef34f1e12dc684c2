"""The work canonical runs do, pinned as exact event counts.

Wall-clock gates cannot see a 10% slowdown on a noisy host, but the
number of events a deterministic run schedules repeats exactly, so a
change that makes the simulator do more (or less) work per request
fails here.  Each run is pinned twice: the total (``env._eid``) and the
events scheduled per class, where ``Initialize`` counts the processes
started.  A model change that legitimately alters a count re-pins these
numbers and says so in its description.
"""

from collections import Counter

import pytest

import repro.serving.runner as runner_module
from repro.core import ServerConfig
from repro.serving import ExperimentConfig, run_experiment, run_fleet_experiment
from repro.vision import reference_dataset
from repro.workload import Workload


class CountingBackend(runner_module.VirtualTimeBackend):
    """Counts every event scheduled, by class, on every scheduling path."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def schedule(self, event, priority=1, delay=0.0):
        self.counts[type(event).__name__] += 1
        super().schedule(event, priority, delay)

    def schedule_at(self, event, at, priority=1):
        self.counts[type(event).__name__] += 1
        super().schedule_at(event, at, priority)

    def timeout(self, delay, value=None):
        # The base timeout() pushes onto the queue without schedule().
        self.counts["Timeout"] += 1
        return super().timeout(delay, value)


#: Total, then events scheduled per class.  Processes nobody waits on
#: are started by ``Environment.spawn`` and schedule no ``Process`` exit
#: on success, and ``GpuMemoryPool.free`` moves its bytes without a
#: ``ContainerPut``; the ``Process`` rows count the exits of processes
#: someone does wait on (staging samples and the run controller).
CLOSED_LOOP = {
    "cpu": (2455, {
        "Condition": 102, "ContainerGet": 121, "Event": 122, "Initialize": 276,
        "PriorityRequest": 84, "Process": 1, "Request": 744, "StoreGet": 163,
        "StorePut": 163, "Timeout": 679,
    }),
    "gpu": (3059, {
        "AllOf": 37, "Condition": 189, "ContainerGet": 134, "Event": 122,
        "Initialize": 413, "PriorityRequest": 74, "Process": 135, "Request": 598,
        "StoreGet": 268, "StorePut": 343, "Timeout": 746,
    }),
}

FLEET = {
    100.0: (9478, {
        "AllOf": 247, "Condition": 252, "ContainerGet": 250, "Event": 502,
        "Initialize": 1015, "PriorityRequest": 494, "Process": 251, "Request": 1494,
        "StoreGet": 1241, "StorePut": 1244, "Timeout": 2488,
    }),
    2000.0: (25305, {
        "AllOf": 453, "Condition": 226, "ContainerGet": 1197, "Event": 508,
        "Initialize": 3987, "PriorityRequest": 467, "Process": 1198, "Request": 4399,
        "StoreGet": 2362, "StorePut": 4125, "Timeout": 6383,
    }),
}


@pytest.mark.parametrize("device", ["cpu", "gpu"])
def test_closed_loop_event_count(device):
    env = CountingBackend()
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
    events, classes = CLOSED_LOOP[device]
    # Every event ever scheduled (timeouts, grants, process exits, ...).
    assert env._eid == events
    assert dict(env.counts) == classes
    assert sum(env.counts.values()) == events


@pytest.mark.parametrize("rate", [100.0, 2000.0])
def test_fleet_event_count(rate, monkeypatch):
    envs = []

    class RecordingBackend(CountingBackend):
        def __init__(self):
            super().__init__()
            envs.append(self)

    monkeypatch.setattr(runner_module, "VirtualTimeBackend", RecordingBackend)
    run_fleet_experiment(
        ServerConfig(), 2, workload=Workload.constant(rate), seed=2,
        warmup_requests=50, measure_requests=200,
    )
    # Resolutions reach the runner through a callback on each request's
    # done event; a watcher process per request would add at least one
    # Initialize per request.
    (env,) = envs
    events, classes = FLEET[rate]
    assert env._eid == events
    assert dict(env.counts) == classes
    assert sum(env.counts.values()) == events
