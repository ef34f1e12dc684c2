"""Pinned outputs of one autoscaled fleet run.

A flash crowd overruns one node, the controller provisions more, and
admission control sheds once the balancer backlog reaches its cap.  One
SHA-256 covers every window latency, the resolution of every issued
request in the order it resolved (outcome, arrival and completion
stamps), the shed count, the scaling timeline and the number of events
the run scheduled.  Any change to the autoscaler, its balancer or the
dispatch path under it that moves one of these breaks the pin.
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
    assert (metrics.completed, fleet.shed, len(timeline), env._eid) == (
        14446, 10224, 4, 437603)
    digest = hashlib.sha256()
    for latency in metrics.latencies:
        digest.update(repr(latency).encode())
        digest.update(b",")
    for resolution in resolutions:
        digest.update(repr(resolution).encode())
        digest.update(b";")
    digest.update(repr((fleet.shed, timeline, env._eid)).encode())
    assert digest.hexdigest() == (
        "e3eb7dfdfefad3b079a90f89016688f9e2be59eb3a78f3361958c682b6f657e1")
