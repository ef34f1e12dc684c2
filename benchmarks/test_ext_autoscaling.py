"""Extension — autoscaling under time-varying load (paper Sec. 2.1).

The paper's datacenter model adds servers when incoming requests exceed
capacity.  This benchmark closes that loop: a diurnal load wave against
a reactive autoscaler, compared with two static fleets — one sized for
the trough (cheap, melts at peak) and one for the peak (meets latency,
wastes nodes).  The autoscaler should approach peak-fleet latency at
closer to trough-fleet cost.
"""

import pytest

from repro.analysis import format_table
from repro.core import MetricsCollector, ServerConfig
from repro.serving import AutoscaledFleet, AutoscalerPolicy, Fleet, WorkloadClient
from repro.sim import Environment, RandomStreams
from repro.vision import reference_dataset
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)
#: 7000 * (1 + 0.7 sin(2 pi t / 18)): the quarter-period offset turns the
#: curve's midnight trough into a rising start.
WORKLOAD = Workload.diurnal(7000, swing=0.7, period_seconds=18,
                            phase_offset_seconds=4.5)
HORIZON = 36.0


def _drive(env, fleet):
    source = WORKLOAD.source(RandomStreams(0), prefix="patterned",
                             default_dataset=reference_dataset("medium"))
    WorkloadClient(env, fleet, source)


def _run_static(nodes):
    env = Environment()
    collector = MetricsCollector()
    collector.arm(0.0)
    fleet = Fleet(env, nodes, SERVER, per_node_cap=512, metrics=collector)
    _drive(env, fleet)
    env.run(until=HORIZON)
    collector.disarm(env.now)
    return {"metrics": collector.finalize(), "node_seconds": nodes * HORIZON}


def _run_autoscaled():
    env = Environment()
    collector = MetricsCollector()
    collector.arm(0.0)
    policy = AutoscalerPolicy(
        target_outstanding_per_node=256,
        min_nodes=1,
        max_nodes=4,
        provision_delay_seconds=0.8,
        cooldown_seconds=0.5,
    )
    fleet = AutoscaledFleet(env, SERVER, policy, metrics=collector)
    _drive(env, fleet)
    # Integrate active-node-seconds from the scaling timeline.
    node_seconds = 0.0
    last_time, last_nodes = 0.0, policy.min_nodes
    env.run(until=HORIZON)
    for event in fleet.events:
        node_seconds += last_nodes * (event.at_time - last_time)
        last_time, last_nodes = event.at_time, event.active_nodes
    node_seconds += last_nodes * (HORIZON - last_time)
    collector.disarm(env.now)
    return {"metrics": collector.finalize(), "node_seconds": node_seconds,
            "events": len(fleet.events)}


def run_comparison():
    return {
        "static 1 node (trough-sized)": _run_static(1),
        "static 4 nodes (peak-sized)": _run_static(4),
        "autoscaled 1-4 nodes": _run_autoscaled(),
    }


@pytest.mark.figure("ext-autoscaling")
def test_ext_autoscaling(run_once):
    data = run_once(run_comparison)

    print(
        "\n"
        + format_table(
            ["fleet", "served/s", "p99", "node-seconds"],
            [
                [
                    label,
                    f"{entry['metrics'].throughput:,.0f}",
                    f"{entry['metrics'].latency.p99 * 1e3:,.0f} ms",
                    f"{entry['node_seconds']:.0f}",
                ]
                for label, entry in data.items()
            ],
            title="Extension — diurnal load (mean 7,000 req/s, 0.3x-1.7x swing)",
        )
    )

    trough = data["static 1 node (trough-sized)"]
    peak = data["static 4 nodes (peak-sized)"]
    auto = data["autoscaled 1-4 nodes"]

    # The trough-sized fleet cannot absorb the offered load.
    assert trough["metrics"].throughput < 0.85 * peak["metrics"].throughput
    # The autoscaler serves nearly as much as the peak-sized fleet...
    assert auto["metrics"].throughput > 0.9 * peak["metrics"].throughput
    # ...with a far better tail than the trough fleet...
    assert auto["metrics"].latency.p99 < 0.5 * trough["metrics"].latency.p99
    # ...at lower node cost than static peak sizing (the 1s provision
    # delay and anti-flapping cooldown bound how much a 2-period run can
    # save; longer horizons save more).
    assert auto["node_seconds"] < 0.95 * peak["node_seconds"]
    assert auto["events"] >= 4  # it actually scaled with the wave
