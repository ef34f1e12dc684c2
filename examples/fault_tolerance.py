#!/usr/bin/env python3
"""Serve through GPU crashes: deadlines, retries, and circuit breaking.

The paper measures a healthy testbed; this example injects GPU crashes
into a two-node fleet and shows what the resilience layer buys.  Three
runs over identical load and seed:

1. fault-free baseline;
2. crashes with no resilience policy (requests ride out each 500 ms
   restart);
3. the same crashes with deadlines + retries + per-node circuit
   breakers (stalled attempts time out at 250 ms and retry on the
   healthy node).

Run:  python examples/fault_tolerance.py
"""

from repro.analysis import format_table, resilience_summary
from repro.core import ServerConfig
from repro.faults import FaultPlan, GpuCrash
from repro.serving import ResiliencePolicy, run_fleet_experiment
from repro.workload import Workload

LOAD = dict(node_count=2, workload=Workload.constant(150.0), warmup_requests=200,
            measure_requests=1500, seed=0)
#: Restart longer than the 250 ms deadline, so crashes are observable
#: as attempt timeouts rather than merely slow successes.
CRASHES = FaultPlan(profiles=(GpuCrash(mtbf_seconds=4.0, restart_seconds=0.5),))


def main() -> None:
    server = ServerConfig(model="resnet-50")

    baseline = run_fleet_experiment(server, **LOAD)
    unprotected = run_fleet_experiment(
        server,
        faults=CRASHES,
        resilience=ResiliencePolicy(deadline_seconds=None, breaker=None),
        **LOAD,
    )
    # A fault plan without a policy gets the default one.
    protected = run_fleet_experiment(server, faults=CRASHES, **LOAD)

    headers = ["run", "faults", "throughput", "p99 (ms)", "timeouts", "retries"]
    rows = []
    for label, result in [
        ("fault-free", baseline),
        ("crashes, no resilience", unprotected),
        ("crashes + deadlines/retries", protected),
    ]:
        counters = resilience_summary(result.metrics)
        rows.append([
            label,
            str(result.fault_count),
            f"{result.throughput:.1f}/s",
            f"{result.metrics.latency.p99 * 1e3:.1f}",
            str(counters["timeout_count"]),
            str(counters["retry_count"]),
        ])
    print(format_table(headers, rows, title="GPU crashes on a 2-node fleet"))
    print()
    print("protected :", protected.summary())
    print("goodput vs fault-free: "
          f"{protected.throughput / baseline.throughput:.1%}")
    print("exported  :", sorted(protected.to_dict().keys()))


if __name__ == "__main__":
    main()
