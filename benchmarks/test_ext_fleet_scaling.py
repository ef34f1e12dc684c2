"""Extension — the paper's Sec. 2.1 datacenter model, executed.

"The load balancer imposes a cap on the number of concurrent requests
each server can handle.  In instances where incoming requests exceed
the system's predefined capacity, additional servers are added."  This
benchmark runs that model: Poisson load against fleets of 1-4 nodes,
showing goodput saturation per node count, and the capacity-planning
loop that converts the paper's per-node throughput into a fleet size.
"""

import pytest

from repro.analysis import format_rate, format_table
from repro.core import ServerConfig
from repro.serving import plan_capacity, run_fleet_experiment
from repro.vision import reference_dataset
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50", preprocess_batch_size=64)
OFFERED = 16000.0


def run_fleet_sweep():
    data = {"sweep": [], "plan": None}
    for nodes in (1, 2, 3, 4):
        result = run_fleet_experiment(
            SERVER,
            node_count=nodes,
            workload=Workload.constant(OFFERED, dataset=reference_dataset("medium")),
            warmup_requests=1500,
            measure_requests=3000,
        )
        data["sweep"].append(result)
    data["plan"] = plan_capacity(
        SERVER,
        offered_rate=OFFERED,
        p99_slo_seconds=0.2,
        dataset=reference_dataset("medium"),
        warmup_requests=1500,
        measure_requests=3000,
    )
    return data


@pytest.mark.figure("ext-fleet")
def test_ext_fleet_scaling(run_once):
    data = run_once(run_fleet_sweep)
    sweep = data["sweep"]
    plan = data["plan"]

    print(
        "\n"
        + format_table(
            ["nodes", "served", "goodput", "p99", "balance", "peak backlog"],
            [
                [
                    str(r.node_count),
                    format_rate(r.throughput),
                    f"{r.goodput_fraction * 100:.0f}%",
                    f"{r.metrics.latency.p99 * 1e3:.0f} ms",
                    f"{r.balance_ratio:.2f}",
                    str(r.peak_backlog),
                ]
                for r in sweep
            ],
            title=f"Extension — fleet scaling at {OFFERED:,.0f} req/s offered",
        )
    )
    print(f"capacity plan: {plan.nodes_required} nodes for p99 <= "
          f"{plan.p99_slo_seconds * 1e3:.0f} ms "
          f"(achieved {plan.achieved_p99 * 1e3:.1f} ms)")

    # Served load grows with nodes until the offer is absorbed.
    served = [r.throughput for r in sweep]
    assert served[0] < served[1] < served[2]
    # Under-provisioned fleets shed/queue load; provisioned ones do not.
    assert sweep[0].goodput_fraction < 0.5
    assert sweep[-1].goodput_fraction > 0.95
    # The balancer keeps nodes even.
    assert all(r.balance_ratio < 1.25 for r in sweep)
    # The planner lands on the smallest sufficient fleet found above.
    sufficient = [r.node_count for r in sweep if r.goodput_fraction > 0.95]
    assert plan.nodes_required <= min(sufficient) + 1
