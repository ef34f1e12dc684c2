"""Unit tests for the timeline trace exporter."""

from repro.analysis.tracing import PID_COUNTERS, PID_REQUESTS, timeline_trace_events
from repro.core.request import InferenceRequest
from repro.telemetry.timeseries import TimeSeriesStore
from repro.vision import MEDIUM_IMAGE


def _traced_request(timeline):
    request = InferenceRequest(MEDIUM_IMAGE, arrival_time=0.0)
    request.timeline = timeline
    return request


def test_requests_are_numbered_by_admission_order():
    first = _traced_request([("queue", 0.0, 1.0)])
    untimed = _traced_request([])  # admitted, but recorded no span
    last = _traced_request([("queue", 0.5, 2.0)])
    # Admitted in the reverse of their creation order.
    events = timeline_trace_events([last, untimed, first])
    rows = {
        e["tid"]: e["ts"]
        for e in events if e["ph"] == "X" and e["pid"] == PID_REQUESTS
    }
    assert rows == {0: 0.5e6, 2: 0.0}


def test_each_gauge_series_is_one_counter_track():
    store = TimeSeriesStore()
    store.record("depth", 0.0, 3.0, {"gpu": "0"})
    store.record("depth", 0.01, 5.0, {"gpu": "0"})
    store.record("level", 0.0, 1.0)
    gauges = [store.get("depth", {"gpu": "0"}), store.get("level")]
    events = timeline_trace_events([], gauges=gauges)
    counters = [
        (e["pid"], e["name"], e["ts"], e["args"]["value"])
        for e in events if e["ph"] == "C"
    ]
    assert counters == [
        (PID_COUNTERS, 'depth{gpu="0"}', 0.0, 3.0),
        (PID_COUNTERS, "level", 0.0, 1.0),
        (PID_COUNTERS, 'depth{gpu="0"}', 10000.0, 5.0),
    ]
    # No gauges, no counter process.
    assert all(e["pid"] != PID_COUNTERS for e in timeline_trace_events([]))
