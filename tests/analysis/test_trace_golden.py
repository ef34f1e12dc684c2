"""Golden-file test of the timestamped Perfetto trace export.

One small, fully deterministic face-pipeline run; the assertions pin the
structural facts the export exists to show: the exact event count, a
monotonic timestamp order, dynamic batches visible as one shared device
slice flow-linked from every member request, and genuine queue/compute
overlap between concurrent requests (the thing the legacy back-to-back
layout could never show).
"""

import json

import pytest

from repro import FacePipelineConfig, TelemetryConfig
from repro.analysis.tracing import PID_DEVICES, PID_REQUESTS
from repro.serving.runner import run_face_pipeline

#: Pinned output size of the run below.  A change here means the trace
#: export (or the simulation itself) changed behaviour — update it only
#: after eyeballing the new trace in https://ui.perfetto.dev.
#: 2288 -> 2281 when the dynamic batcher's queue-delay deadline was
#: re-anchored to the oldest item's enqueue time (Triton semantics):
#: stalled batches now dispatch earlier, forming slightly fewer slices.
#: 2281 -> 2285 when the counter tracks moved to the scraper's gauges:
#: each of the 4 tracks gains the closing scrape (66 points, was 65);
#: the 2019 non-counter events are unchanged.
GOLDEN_EVENT_COUNT = 2285


def _faces_run(telemetry):
    return run_face_pipeline(
        FacePipelineConfig(),
        concurrency=16,
        warmup_requests=10,
        measure_requests=80,
        seed=3,
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def trace_events():
    result = _faces_run(TelemetryConfig(enabled=True, scrape_interval_seconds=0.01))
    session = result.telemetry
    return session.tracer.trace_events(gauges=session.gauges)


class TestGoldenTrace:
    def test_event_count_is_pinned(self, trace_events):
        assert len(trace_events) == GOLDEN_EVENT_COUNT

    def test_timestamps_are_monotonic(self, trace_events):
        stamps = [e["ts"] for e in trace_events if "ts" in e]
        assert stamps == sorted(stamps)
        assert all(e["dur"] >= 0 for e in trace_events if e["ph"] == "X")

    def test_batches_share_one_inference_slice(self, trace_events):
        shared = [
            e
            for e in trace_events
            if e["ph"] == "X"
            and e["pid"] == PID_DEVICES
            and "inference" in e["name"]
            and len(e["args"].get("requests", [])) >= 2
        ]
        assert shared, "no dynamic batch produced a shared inference slice"
        # Every member of the batch is flow-linked to the shared slice.
        flow_starts = {
            (e["id"], e["tid"]) for e in trace_events if e["ph"] == "s"
        }
        flow_finishes = {e["id"] for e in trace_events if e["ph"] == "f"}
        members = shared[0]["args"]["requests"]
        linked = [
            rid
            for rid in members
            if any(tid == rid for _, tid in flow_starts)
        ]
        assert len(linked) == len(members)
        assert flow_finishes, "flow arrows need finish events on the device track"

    def test_flow_events_pair_up(self, trace_events):
        starts = sorted(e["id"] for e in trace_events if e["ph"] == "s")
        finishes = sorted(e["id"] for e in trace_events if e["ph"] == "f")
        assert starts == finishes
        assert len(starts) == len(set(starts))

    def test_queue_overlaps_other_requests_compute(self, trace_events):
        request_slices = [
            e for e in trace_events if e["ph"] == "X" and e["pid"] == PID_REQUESTS
        ]
        queues = [e for e in request_slices if e["args"].get("kind") == "queue"]
        computes = [e for e in request_slices if e["args"].get("kind") == "compute"]
        assert queues and computes

        def overlaps(a, b):
            return a["ts"] < b["ts"] + b["dur"] and b["ts"] < a["ts"] + a["dur"]

        overlapping = sum(
            1
            for q in queues
            if any(c["tid"] != q["tid"] and overlaps(q, c) for c in computes)
        )
        # Under concurrency 16, queueing while others compute is the norm.
        assert overlapping >= len(queues) // 2

    def test_counter_track_present(self, trace_events):
        counters = [e for e in trace_events if e["ph"] == "C"]
        assert counters
        names = {e["name"] for e in counters}
        assert 'repro_stage_queue_depth{stage="detect"}' in names

    def test_identical_runs_export_identical_events(self):
        # Request ids come from the tracer's admission order, not from a
        # process-wide counter, so a second run in the same process
        # exports the same trace.
        first, second = (
            _faces_run(TelemetryConfig(enabled=True)).telemetry.tracer.trace_events()
            for _ in range(2)
        )
        assert first == second

    def test_written_file_is_perfetto_loadable_json(self, tmp_path):
        result = _faces_run(TelemetryConfig(enabled=True))
        path = tmp_path / "faces.trace.json"
        count = result.telemetry.write_trace(str(path))
        payload = json.loads(path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == count
        kinds = {e["ph"] for e in payload["traceEvents"]}
        assert {"M", "X", "s", "f"} <= kinds
        assert "C" not in kinds  # no scraper, no counter tracks
