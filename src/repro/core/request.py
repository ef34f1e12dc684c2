"""Inference requests and their lifecycle accounting.

Every request carries a span ledger recording where its wall-clock time
went — the raw material for the paper's latency breakdowns (Fig. 6), the
queue-time analysis (Fig. 5), and the inference-time-percentage plot
(Fig. 4 bottom).

When a :class:`~repro.telemetry.tracer.Tracer` arms a request (setting
``timeline`` to a list), the ledger additionally records every span as a
timestamped ``(name, start, end)`` interval — the raw material for
Perfetto traces that show true queue/compute overlap and batch grouping
rather than back-to-back duration sums.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..sim.sums import float_sum
from ..vision.image import Image

__all__ = [
    "InferenceRequest",
    "SPAN_FRONTEND",
    "SPAN_PREPROCESS_WAIT",
    "SPAN_PREPROCESS",
    "SPAN_QUEUE",
    "SPAN_TRANSFER",
    "SPAN_INFERENCE",
    "SPAN_POSTPROCESS",
    "ALL_SPANS",
    "OUTCOME_OK",
    "OUTCOME_TIMEOUT",
    "OUTCOME_SHED",
    "OUTCOMES",
]

SPAN_FRONTEND = "frontend"
SPAN_PREPROCESS_WAIT = "preprocess_wait"
SPAN_PREPROCESS = "preprocess"
SPAN_QUEUE = "queue"
SPAN_TRANSFER = "transfer"
SPAN_INFERENCE = "inference"
SPAN_POSTPROCESS = "postprocess"

#: Canonical presentation order of the spans.
ALL_SPANS = (
    SPAN_FRONTEND,
    SPAN_PREPROCESS_WAIT,
    SPAN_PREPROCESS,
    SPAN_QUEUE,
    SPAN_TRANSFER,
    SPAN_INFERENCE,
    SPAN_POSTPROCESS,
)

#: Request outcomes.  ``ok`` requests count toward throughput and the
#: latency sample; ``timeout`` (deadline exceeded) and ``shed``
#: (rejected by admission control) count toward the failure counters.
OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_SHED = "shed"
OUTCOMES = (OUTCOME_OK, OUTCOME_TIMEOUT, OUTCOME_SHED)

_request_ids = itertools.count()


class InferenceRequest:
    """One in-flight inference request."""

    __slots__ = (
        "request_id",
        "image",
        "arrival_time",
        "completion_time",
        "spans",
        "gpu_index",
        "batch_size",
        "eviction_count",
        "deadline",
        "attempt",
        "outcome",
        "served_from",
        "workload_phase",
        "timeline",
        "trace",
        "_open_spans",
    )

    def __init__(
        self,
        image: Image,
        arrival_time: float,
        deadline: Optional[float] = None,
        attempt: int = 0,
        phase: Optional[str] = None,
    ) -> None:
        self.request_id = next(_request_ids)
        self.image = image
        self.arrival_time = arrival_time
        self.completion_time: Optional[float] = None
        self.spans: Dict[str, float] = {}
        self.gpu_index: Optional[int] = None
        #: Size of the batch this request was inferred in.
        self.batch_size: Optional[int] = None
        #: Number of times this request's tensor was evicted from GPU memory.
        self.eviction_count = 0
        #: Absolute simulation time by which the request must complete,
        #: or ``None`` for no deadline (default).
        self.deadline = deadline
        #: Retry attempt index (0 for the first submission).
        self.attempt = attempt
        #: Lifecycle outcome; stamped at completion (see ``OUTCOMES``).
        self.outcome = OUTCOME_OK
        #: Highest cache tier that served this request ("result",
        #: "tensor", "image"), or ``None`` for a fully computed request.
        self.served_from: Optional[str] = None
        #: Workload phase ("day", "night", "flash", "region:eu", ...)
        #: the arrival was issued under, or ``None`` when the load
        #: generator carries no phase information (closed-loop and
        #: constant-rate load).
        self.workload_phase = phase
        #: Timestamped ``(name, start, end)`` intervals, recorded only
        #: when a tracer armed the request (``None`` = recording off).
        self.timeline: Optional[List[Tuple[str, float, float]]] = None
        #: Distributed-trace hop this request belongs to
        #: (:class:`~repro.telemetry.context.TraceContext`), or ``None``
        #: when the request is not part of a distributed trace.
        self.trace = None
        self._open_spans: Dict[str, float] = {}

    def __repr__(self) -> str:
        state = "done" if self.completion_time is not None else "in-flight"
        return f"<InferenceRequest #{self.request_id} {self.image} ({state})>"

    # -- span ledger --------------------------------------------------------

    def begin(self, span: str, now: float) -> None:
        """Open a span (idempotent-safe: reopening replaces the mark)."""
        self._open_spans[span] = now

    def end(self, span: str, now: float) -> None:
        """Close a span and accumulate its duration."""
        started = self._open_spans.pop(span, None)
        if started is None:
            raise RuntimeError(f"span {span!r} was never opened on {self!r}")
        # add(span, now - started, now=now), inlined on the hot path.
        seconds = now - started
        if seconds < 0:
            raise ValueError(f"negative span duration {seconds} for {span!r}")
        self.spans[span] = self.spans.get(span, 0.0) + seconds
        if self.timeline is not None:
            self.timeline.append((span, now - seconds, now))

    def span_open(self, span: str) -> bool:
        """True if ``span`` is currently open."""
        return span in self._open_spans

    def add(self, span: str, seconds: float, now: Optional[float] = None) -> None:
        """Accumulate ``seconds`` into ``span`` directly.

        ``now`` is the interval's *end* timestamp; when given and the
        request is armed for tracing, the interval also lands on the
        timeline (callers without a timestamp keep the duration-only
        ledger exactly as before).
        """
        if seconds < 0:
            raise ValueError(f"negative span duration {seconds} for {span!r}")
        self.spans[span] = self.spans.get(span, 0.0) + seconds
        if self.timeline is not None and now is not None:
            self.timeline.append((span, now - seconds, now))

    def complete(self, now: float) -> None:
        """Mark the request finished; stamps a ``timeout`` outcome when a
        deadline was set and missed."""
        if self.completion_time is not None:
            raise RuntimeError(f"{self!r} completed twice")
        self.completion_time = now
        if self.deadline is not None and now >= self.deadline:
            self.outcome = OUTCOME_TIMEOUT

    @property
    def deadline_exceeded(self) -> bool:
        """True once the request has missed its deadline."""
        return self.outcome == OUTCOME_TIMEOUT

    # -- derived quantities ---------------------------------------------------

    @property
    def latency(self) -> float:
        """End-to-end latency; only valid once completed."""
        if self.completion_time is None:
            raise RuntimeError(f"{self!r} has not completed")
        return self.completion_time - self.arrival_time

    @property
    def accounted_seconds(self) -> float:
        """Sum of all recorded spans."""
        return float_sum(self.spans.values())

    def span_fraction(self, span: str) -> float:
        """Fraction of end-to-end latency spent in ``span``."""
        latency = self.latency
        if latency <= 0:
            return 0.0
        return self.spans.get(span, 0.0) / latency
