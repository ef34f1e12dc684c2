"""Extension — fault tolerance of the serving fleet.

The paper measures a healthy testbed; this benchmark asks what the
resilience layer buys when GPUs crash.  Three checks:

1. **Zero cost when off** — with no fault plan and no resilience policy
   the fleet produces *bit-identical* metrics to the seed code path, so
   every paper-figure number is unchanged.
2. **Graceful degradation** — under GPU crashes (restart longer than
   the request deadline, so stalls are observable) deadlines + retries
   keep goodput >= 90 % of fault-free and hold p99 near the deadline
   instead of the restart time.
3. **Degradation scales with fault rate** — a downtime sweep shows
   retries/timeouts growing with injected downtime while goodput stays
   bounded.
"""

import pytest

from repro.analysis import format_table, resilience_summary
from repro.core import ServerConfig
from repro.faults import FaultPlan, gpu_crash_plan, sweep_fault_rates
from repro.serving import ResiliencePolicy, run_fleet_experiment
from repro.workload import Workload

SERVER = ServerConfig(model="resnet-50")
LOAD = dict(node_count=2, workload=Workload.constant(150.0), warmup_requests=200,
            measure_requests=1200, seed=0)
#: Long enough (~40 simulated seconds) that a 1 % downtime profile
#: (mtbf ~49.5 s per GPU, two GPUs) reliably fires.
LONG_LOAD = dict(node_count=2, workload=Workload.constant(200.0), warmup_requests=300,
                 measure_requests=8000, seed=0, max_sim_seconds=60.0)
#: Restart (0.5 s) deliberately exceeds the deadline (0.25 s) throughout:
#: a crash must surface as attempt timeouts, not just a slow success.


@pytest.mark.figure("ext-fault-tolerance")
def test_fault_injection_off_is_bit_identical(run_once):
    def sweep():
        base = run_fleet_experiment(SERVER, **LOAD)
        off = run_fleet_experiment(SERVER, resilience=None, faults=None, **LOAD)
        plan = FaultPlan()  # empty plan: enabled is False
        empty = run_fleet_experiment(SERVER, faults=plan, resilience=None, **LOAD)
        return base, off, empty

    base, off, empty = run_once(sweep)
    assert off.metrics == base.metrics
    assert empty.metrics == base.metrics
    assert base.fault_count == off.fault_count == empty.fault_count == 0
    print("\nfault machinery off: metrics bit-identical to seed path")
    print(base.summary())


@pytest.mark.figure("ext-fault-tolerance")
def test_goodput_survives_one_percent_gpu_crashes(run_once):
    def sweep():
        baseline = run_fleet_experiment(
            SERVER, resilience=ResiliencePolicy(), **LONG_LOAD
        )
        faulty = run_fleet_experiment(
            SERVER, faults=gpu_crash_plan(0.01, restart_seconds=0.5), **LONG_LOAD
        )
        return baseline, faulty

    baseline, faulty = run_once(sweep)
    deadline = ResiliencePolicy().deadline_seconds

    assert faulty.fault_count > 0, "no faults fired; mtbf too long for the run"
    assert faulty.metrics.retry_count > 0
    assert faulty.metrics.timeout_count > 0
    # Retries keep goodput within 10 % of the fault-free fleet.
    assert faulty.throughput >= 0.9 * baseline.throughput
    # Deadline bounds the tail: p99 tracks the deadline, not the 0.5 s
    # restart a deadline-less client would eat.
    assert faulty.metrics.latency.p99 <= 2.0 * deadline

    headers = ["run", "throughput", "p99 (ms)", "timeouts", "retries", "goodput"]

    def row(label, result):
        summary = resilience_summary(result.metrics)
        return [label, f"{result.throughput:.1f}",
                f"{result.metrics.latency.p99 * 1e3:.1f}",
                str(summary["timeout_count"]), str(summary["retry_count"]),
                f"{summary['success_fraction']:.3f}"]

    print("\n" + format_table(headers, [
        row("fault-free", baseline),
        row(f"gpu-crash x{faulty.fault_count}", faulty),
    ], title="GPU crashes: deadline=250ms, restart=500ms"))


@pytest.mark.figure("ext-fault-tolerance")
def test_degradation_scales_with_fault_rate(run_once):
    def sweep():
        return sweep_fault_rates(
            SERVER,
            downtime_fractions=(0.05, 0.15),
            restart_seconds=0.5,
            **LOAD,
        )

    points = run_once(sweep)
    assert len(points) == 2
    light, heavy = points
    assert heavy.result.fault_count >= light.result.fault_count
    for point in points:
        assert point.goodput_ratio >= 0.7
        assert point.result.metrics.latency.p99 <= 2.0 * 0.25
    assert heavy.timeouts + heavy.retries > 0

    headers = ["downtime", "faults", "goodput ratio", "p99 ratio", "timeouts", "retries"]
    rows = [
        [f"{p.downtime_fraction:.0%}", str(p.result.fault_count),
         f"{p.goodput_ratio:.3f}", f"{p.p99_ratio:.2f}",
         str(p.timeouts), str(p.retries)]
        for p in points
    ]
    print("\n" + format_table(headers, rows, title="GPU-crash downtime sweep"))
