"""Chrome/Perfetto trace export of request timelines.

:func:`timeline_trace_events` builds Trace Event Format JSON (the format
``chrome://tracing`` and https://ui.perfetto.dev load) from request
*timelines*: the ``(name, start, end)`` intervals an armed
:class:`~repro.telemetry.tracer.Tracer` records.  Slices sit at their
true simulation times, so queue/compute overlap is visible; device
spans are grouped onto one track per (GPU, span) with identical batch
intervals deduplicated into a single shared slice; flow arrows link
each member request to that shared slice; and the scraped gauge series
of a :class:`~repro.telemetry.scraper.MetricsScraper` become counter
tracks (queue depth, GPU memory, ...).

The per-request span order and grouping conventions match how Triton
reports queue/compute durations, so traces read like a real serving
deployment's.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.request import InferenceRequest
from ..telemetry.exposition import _labels_text
from ..telemetry.spans import KIND_COMPUTE, KIND_TRANSFER, span_kind
from ..telemetry.timeseries import SeriesBuffer

__all__ = [
    "timeline_trace_events",
    "write_perfetto_trace",
]

_CATEGORY = "serving"
_FLOW_CATEGORY = "batch"

#: Process ids of the three track groups in a timeline trace.
PID_DEVICES = 0
PID_REQUESTS = 1
PID_COUNTERS = 2


def _device_track(span: str, gpu_index: Optional[int]) -> Optional[str]:
    """Device track of a span, or ``None`` for request-side spans.

    Compute and transfer spans occupy a device and get a shared track;
    queue-kind spans (and host-side frontend/postprocess/broker
    book-keeping) stay on the request's own row, where their overlap
    with *other* requests' compute is the interesting signal.
    """
    kind = span_kind(span)
    gpu = 0 if gpu_index is None else gpu_index
    if kind == KIND_TRANSFER:
        return f"gpu{gpu} pcie"
    if kind == KIND_COMPUTE and span in ("inference", "identify"):
        return f"gpu{gpu} {span}"
    if span == "preprocess":
        return "preprocess"
    return None


def timeline_trace_events(
    requests: Sequence[InferenceRequest],
    gauges: Sequence[SeriesBuffer] = (),
    process_name: str = "repro-server",
) -> List[dict]:
    """Device-centric trace events from timestamped request timelines.

    Identical device intervals shared by several requests (a dynamic
    batch) collapse into one slice carrying the member request ids, and
    each member's own track is linked to it with a flow arrow — the
    batch-grouping view of the paper's Sec. 2.1 analysis.  A request's
    id is its index in ``requests`` (the tracer's admission order), so
    a trace depends only on its own run.  Requests without a timeline
    (never armed by a tracer) are skipped.  Each series in ``gauges``
    becomes one counter track, named by its series name and labels.
    """
    events: List[dict] = []
    track_tids: Dict[str, int] = {}

    def process_meta(pid: int, name: str) -> None:
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        )
        events.append(
            {"name": "process_sort_index", "ph": "M", "pid": pid,
             "args": {"sort_index": pid}}
        )

    def device_tid(track: str) -> int:
        tid = track_tids.get(track)
        if tid is None:
            tid = len(track_tids)
            track_tids[track] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": PID_DEVICES,
                    "tid": tid,
                    "args": {"name": track},
                }
            )
        return tid

    process_meta(PID_DEVICES, f"{process_name} devices")
    process_meta(PID_REQUESTS, f"{process_name} requests")

    # (track, span, start, end) -> member request ids; identical device
    # intervals are one physical occupancy shared by a batch.
    device_slices: Dict[Tuple[str, str, float, float], List[int]] = {}

    for rid, request in enumerate(requests):
        if not request.timeline:
            continue
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": PID_REQUESTS,
                "tid": rid,
                "args": {"name": f"request {rid} ({request.image})"},
            }
        )
        span_args = {
            "kind": None,
            "batch_size": request.batch_size,
            "gpu": request.gpu_index,
        }
        phase = getattr(request, "workload_phase", None)
        if phase is not None:
            span_args["phase"] = phase
        for span, start, end in sorted(request.timeline, key=lambda e: e[1]):
            events.append(
                {
                    "name": span,
                    "cat": _CATEGORY,
                    "ph": "X",
                    "pid": PID_REQUESTS,
                    "tid": rid,
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {**span_args, "kind": span_kind(span)},
                }
            )
            track = _device_track(span, request.gpu_index)
            if track is not None:
                device_slices.setdefault((track, span, start, end), []).append(rid)

    flow_id = 0
    for (track, span, start, end), members in sorted(device_slices.items()):
        tid = device_tid(track)
        events.append(
            {
                "name": span,
                "cat": _CATEGORY,
                "ph": "X",
                "pid": PID_DEVICES,
                "tid": tid,
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"batch_size": len(members), "requests": members},
            }
        )
        for rid in members:
            flow_id += 1
            events.append(
                {
                    "name": span,
                    "cat": _FLOW_CATEGORY,
                    "ph": "s",
                    "id": flow_id,
                    "pid": PID_REQUESTS,
                    "tid": rid,
                    "ts": start * 1e6,
                }
            )
            events.append(
                {
                    "name": span,
                    "cat": _FLOW_CATEGORY,
                    "ph": "f",
                    "bp": "e",
                    "id": flow_id,
                    "pid": PID_DEVICES,
                    "tid": tid,
                    "ts": start * 1e6,
                }
            )

    if gauges:
        process_meta(PID_COUNTERS, f"{process_name} counters")
    for series in gauges:
        name = series.name + _labels_text(dict(series.labels))
        for time, value in zip(series.times, series.values):
            events.append(
                {
                    "name": name,
                    "cat": "counter",
                    "ph": "C",
                    "pid": PID_COUNTERS,
                    "ts": time * 1e6,
                    "args": {"value": value},
                }
            )

    # Stable timestamp order (metadata events carry no ts and sort first).
    events.sort(key=lambda e: (e.get("ts", -1.0), e.get("ph") != "X"))
    return events


def write_perfetto_trace(
    path: str,
    requests: Sequence[InferenceRequest],
    gauges: Sequence[SeriesBuffer] = (),
    process_name: str = "repro-server",
) -> int:
    """Write a Perfetto-loadable timeline trace; returns the event count."""
    events = timeline_trace_events(requests, gauges=gauges, process_name=process_name)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return len(events)
