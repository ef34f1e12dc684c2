"""Extension — observability overhead and fidelity.

The telemetry layer promises two things at once: it is *free to ignore*
(telemetry off takes bit-identical code paths to the seed) and it is
*honest when on* (enabling tracing, the metrics registry, SLO tracking
and the sampler changes no simulated result, because every instrument is
a view over state the simulation already maintains).  Three checks:

1. **Off is bit-identical** — ``telemetry=None`` and a default
   (disabled) ``TelemetryConfig`` both reproduce the seed's
   ``RunMetrics`` exactly.
2. **On is observer-neutral** — a fully enabled session (trace + SLO +
   scraper) still yields bit-identical ``RunMetrics``, while the
   registry's completion counter matches the collector's and the
   streaming histogram's p99 lands within one geometric bucket of the
   exact-sample p99.
3. **The trace shows real concurrency** — the exported Perfetto events
   contain a dynamic batch as one shared inference slice flow-linked
   from >= 2 member requests, with queue spans overlapping other
   requests' compute.
"""

import pytest

from repro.core import ServerConfig
from repro.serving import ExperimentConfig, run_experiment
from repro.telemetry import SloConfig, TelemetryConfig, parse_prometheus_text

SERVER = ServerConfig(model="resnet-50")
LOAD = dict(concurrency=64, warmup_requests=300, measure_requests=1500, seed=0)

FULL_TELEMETRY = TelemetryConfig(
    enabled=True,
    trace=True,
    trace_limit=4000,
    slo=SloConfig(latency_objective_seconds=0.2, target=0.99),
    scrape_interval_seconds=0.005,
)


@pytest.mark.figure("ext-telemetry")
def test_telemetry_off_is_bit_identical(run_once):
    def sweep():
        base = run_experiment(ExperimentConfig(server=SERVER, **LOAD))
        off = run_experiment(
            ExperimentConfig(server=SERVER, telemetry=None, **LOAD)
        )
        disabled = run_experiment(
            ExperimentConfig(server=SERVER, telemetry=TelemetryConfig(), **LOAD)
        )
        return base, off, disabled

    base, off, disabled = run_once(sweep)
    assert off.metrics == base.metrics
    assert disabled.metrics == base.metrics
    assert off.telemetry is None and disabled.telemetry is None
    print("\ntelemetry off: metrics bit-identical to seed path")
    print(base.summary())


@pytest.mark.figure("ext-telemetry")
def test_enabled_telemetry_is_observer_neutral(run_once):
    def sweep():
        base = run_experiment(ExperimentConfig(server=SERVER, **LOAD))
        traced = run_experiment(
            ExperimentConfig(server=SERVER, telemetry=FULL_TELEMETRY, **LOAD)
        )
        return base, traced

    base, traced = run_once(sweep)
    assert traced.metrics == base.metrics

    session = traced.telemetry
    snap = session.snapshots[-1]
    completed = snap.metric("repro_requests_completed_total")["samples"][0]["value"]
    assert completed >= base.metrics.completed
    # The scraper sampled the server's gauges.
    assert len(session.store.get("repro_batch_queue_depth", {"gpu": "0"})) > 0

    # Streaming histogram p99 within one geometric bucket of the exact p99.
    histogram = session.latency
    exact = sorted(
        request.latency
        for request in session.tracer.requests
        if request.completion_time is not None
    )
    exact_p99 = exact[int(0.99 * len(exact)) - 1]
    index = histogram._index(exact_p99)
    width = histogram.bound(index) - (histogram.bound(index - 1) if index else 0.0)
    assert abs(histogram.quantile(0.99) - exact_p99) <= width

    # The Prometheus exposition round-trips through the parser.
    families = parse_prometheus_text(session.prometheus_text())
    assert families["repro_requests_completed_total"]["samples"][0]["value"] == completed
    assert families["repro_request_latency_seconds"]["kind"] == "histogram"

    report = session.slo_report()
    print("\ntelemetry on: observer-neutral (RunMetrics bit-identical)")
    print(f"registry families : {len(session.registry)}")
    print(f"traced requests   : {len(session.tracer.requests)}")
    print(f"p99 exact/estimate: {exact_p99 * 1e3:.2f} / "
          f"{histogram.quantile(0.99) * 1e3:.2f} ms")
    print(f"SLO compliance    : {report.compliance * 100:.2f}% "
          f"({'met' if report.met else 'missed'})")


@pytest.mark.figure("ext-telemetry")
def test_trace_shows_shared_batches_and_overlap(run_once):
    from repro.analysis.tracing import PID_DEVICES, PID_REQUESTS

    def sweep():
        result = run_experiment(
            ExperimentConfig(server=SERVER, telemetry=FULL_TELEMETRY, **LOAD)
        )
        session = result.telemetry
        return session.tracer.trace_events(gauges=session.gauges)

    events = run_once(sweep)
    shared = [
        e
        for e in events
        if e["ph"] == "X"
        and e["pid"] == PID_DEVICES
        and "inference" in e["name"]
        and len(e["args"].get("requests", [])) >= 2
    ]
    assert shared, "expected >= 1 dynamic batch as a shared inference slice"
    flow_tids = {e["tid"] for e in events if e["ph"] == "s"}
    members = shared[0]["args"]["requests"]
    assert all(rid in flow_tids for rid in members)

    request_slices = [
        e for e in events if e["ph"] == "X" and e["pid"] == PID_REQUESTS
    ]
    queues = [e for e in request_slices if e["args"].get("kind") == "queue"]
    computes = [e for e in request_slices if e["args"].get("kind") == "compute"]

    def overlaps(a, b):
        return a["ts"] < b["ts"] + b["dur"] and b["ts"] < a["ts"] + a["dur"]

    assert any(
        c["tid"] != q["tid"] and overlaps(q, c) for q in queues for c in computes
    ), "queue spans must overlap other requests' compute in a loaded trace"
    largest = max(len(e["args"]["requests"]) for e in shared)
    print(f"\nshared inference slices: {len(shared)} (largest batch {largest})")
    print(f"trace events: {len(events)}")
