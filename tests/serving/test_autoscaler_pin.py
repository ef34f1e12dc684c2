"""Pinned outputs of one autoscaled fleet run.

A flash crowd overruns one node, the controller provisions more, and
admission control sheds once the balancer backlog reaches its cap.  One
SHA-256 covers every window latency, the resolution of every issued
request in the order it resolved (outcome, arrival and completion
stamps), the shed count and the scaling timeline.  Any change to the
autoscaler, its balancer or the dispatch path under it that moves one
of these breaks the pin.  The number of events the run scheduled is
pinned on its own, so a change that only drops dispatches without
callbacks re-pins that count and leaves the digest as it is.
"""

import hashlib

from repro.core import MetricsCollector, ServerConfig
from repro.serving import AutoscaledFleet, AutoscalerPolicy, WorkloadClient
from repro.sim import Environment, RandomStreams
from repro.vision import reference_dataset
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)


def test_flash_burst_autoscaler_pin():
    env = Environment()
    collector = MetricsCollector()
    collector.arm(0.0)
    policy = AutoscalerPolicy(min_nodes=1, max_nodes=4,
                              provision_delay_seconds=0.5, max_backlog=128)
    fleet = AutoscaledFleet(env, SERVER, policy, metrics=collector)
    resolutions = []

    def resolved(request):
        resolutions.append(
            (request.outcome, request.arrival_time, request.completion_time))

    source = Workload.flash_crowd(500, bursts=[(2.0, 1.5, 30.0)]).source(
        RandomStreams(0), prefix="patterned",
        default_dataset=reference_dataset("medium"))
    WorkloadClient(env, fleet, source, on_complete=resolved)
    env.run(until=6.0)
    collector.disarm(env.now)
    metrics = collector.finalize()

    timeline = [(e.at_time, e.action, e.active_nodes) for e in fleet.events]
    assert (metrics.completed, fleet.shed, len(timeline)) == (14446, 10224, 4)
    assert env._eid == 379755
    digest = hashlib.sha256()
    for latency in metrics.latencies:
        digest.update(repr(latency).encode())
        digest.update(b",")
    for resolution in resolutions:
        digest.update(repr(resolution).encode())
        digest.update(b";")
    digest.update(repr((fleet.shed, timeline)).encode())
    assert digest.hexdigest() == (
        "9bda9339c380a1c62d78868a1a0abff8aac7f14c33b789d61c494a3b156e4154")
