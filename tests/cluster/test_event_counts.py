"""The work the golden day does on its shard, pinned as exact counts.

``cluster_day`` (the benchmark's 10k-node run) replays the golden day
through one shard environment in thousands of short ``run(until=)``
slices.  Its digests pin the outputs; this pins the work: every event
the shard schedules, by class (``Initialize`` = processes started), the
total (``env._eid``), the lockstep epochs and the numeric
``run(until=)`` slices.  A slice stops at a bound and queues no stop
event, but consumes the eid one would have had, so every eid is either
a scheduled event or a slice.  Any row moving means the day does
different work.
"""

from collections import Counter
from numbers import Real
from pathlib import Path

import repro.cluster.shards as shards_module
from repro.cluster import ClusterConfig, run_cluster_experiment
from repro.core import ServerConfig
from repro.workload import Workload

GOLDEN = Path(__file__).parent.parent / "workload" / "golden" / "day.jsonl.gz"

TEN_K = ClusterConfig(
    cells=2500, nodes_per_cell=4,
    fluid=True, fluid_hot_threshold=8, fluid_hot_window_seconds=1.0,
)

EVENTS = 10069
EPOCHS = 3887
SLICES = 2248
CLASSES = {
    "AllOf": 161, "Condition": 161, "ContainerGet": 161, "Event": 1961,
    "Initialize": 869, "PriorityRequest": 322, "Process": 161, "Request": 966,
    "StoreGet": 805, "StorePut": 805, "Timeout": 1449,
}


class CountingEnvironment(shards_module.Environment):
    """Counts events scheduled by class, and numeric run(until=) calls."""

    def __init__(self, initial_time=0.0):
        super().__init__(initial_time)
        self.counts = Counter()
        self.slices = 0

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

    def run(self, until=None):
        if isinstance(until, Real):
            self.slices += 1
        return super().run(until)


def test_golden_day_shard_event_counts(monkeypatch):
    envs = []

    class RecordingEnvironment(CountingEnvironment):
        def __init__(self, initial_time=0.0):
            super().__init__(initial_time)
            envs.append(self)

    monkeypatch.setattr(shards_module, "Environment", RecordingEnvironment)
    result = run_cluster_experiment(
        ServerConfig(model="resnet-50", preprocess_batch_size=64),
        TEN_K, Workload.replay(str(GOLDEN)), seed=0,
    )
    (env,) = envs
    assert result.epochs == EPOCHS
    assert env.slices == SLICES
    assert env._eid == EVENTS
    assert dict(env.counts) == CLASSES
    assert sum(env.counts.values()) + env.slices == EVENTS
