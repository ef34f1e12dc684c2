#!/usr/bin/env python3
"""Autoscale a serving fleet through a diurnal load wave.

The paper's datacenter model (Sec. 2.1) adds servers when incoming
requests exceed capacity.  This example drives a sinusoidal "day" of
traffic (compressed to 60 simulated seconds) against a reactive
autoscaler and prints the scaling timeline, a load sparkline, and the
served-vs-offered summary.

Run:  python examples/autoscaling_diurnal.py
"""

from repro.analysis import format_table, sparkline
from repro.core import MetricsCollector, ServerConfig
from repro.serving import AutoscaledFleet, AutoscalerPolicy, WorkloadClient
from repro.sim import Environment, RandomStreams
from repro.telemetry import MetricsRegistry, MetricsScraper
from repro.vision import reference_dataset
from repro.workload import Workload


def main() -> None:
    env = Environment()
    collector = MetricsCollector()
    collector.arm(0.0)

    policy = AutoscalerPolicy(
        target_outstanding_per_node=256,
        min_nodes=1,
        max_nodes=4,
        provision_delay_seconds=1.5,
    )
    fleet = AutoscaledFleet(
        env,
        ServerConfig(model="resnet-50", preprocess_batch_size=64),
        policy,
        metrics=collector,
    )
    # 9000 * (1 + 0.7 sin(2 pi t / 30)): a rising start, peak at 7.5 s.
    workload = Workload.diurnal(9000, swing=0.7, period_seconds=30,
                                phase_offset_seconds=7.5)
    source = workload.source(RandomStreams(0), prefix="patterned",
                             default_dataset=reference_dataset("medium"))
    WorkloadClient(env, fleet, source)

    registry = MetricsRegistry()
    fleet.register_metrics(registry)
    registry.gauge_fn(
        "repro_workload_offered_rate",
        "Instantaneous workload arrival rate (requests/second)",
        lambda: workload.arrivals.rate_at(env.now),
    )
    scraper = MetricsScraper(env, registry, interval=1.0)
    scraper.start()

    env.run(until=60.0)
    collector.disarm(env.now)
    metrics = collector.finalize()

    store = scraper.store
    active = store.get("repro_autoscaler_active_nodes").values
    print("offered load :", sparkline(store.get("repro_workload_offered_rate").values))
    print("active nodes :", sparkline(active, bounds=(0, policy.max_nodes)))
    print("outstanding  :", sparkline(store.get("repro_autoscaler_outstanding").values))
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["mean offered", f"{workload.offered_rate_hint():,.0f} req/s"],
                ["served", f"{metrics.throughput:,.0f} req/s"],
                ["mean latency", f"{metrics.latency.mean * 1e3:.0f} ms"],
                ["p99 latency", f"{metrics.latency.p99 * 1e3:.0f} ms"],
                ["scaling actions", str(len(fleet.events))],
                ["mean active nodes", f"{sum(active) / len(active):.2f}"],
            ],
            title="Autoscaled fleet over two diurnal periods",
        )
    )
    print("\nScaling timeline:")
    for event in fleet.events[:16]:
        print(f"  t={event.at_time:5.1f}s  {event.action:9s} -> "
              f"{event.active_nodes} active node(s)")


if __name__ == "__main__":
    main()
