"""Per-run span tracer.

The :class:`Tracer` is the attachment point between the serving stack
and trace export.  Components that create requests call
:meth:`Tracer.register`; for each admitted request the tracer arms the
request's ``timeline`` slot, after which every ``begin``/``end`` (and
timestamped ``add``) on the request appends a ``(name, start, end)``
interval.  Registration only ever touches the request object — it draws
no randomness and schedules no events, so an attached tracer cannot
perturb the simulation.

Long runs are bounded two ways: ``sample_every=N`` admits every Nth
request, and ``limit`` caps how many are retained; requests refused by
the limit are counted in :attr:`Tracer.dropped` (surfaced as a warning
and a metric at the end of a run, never silently).
"""

from __future__ import annotations

import warnings
from typing import List, Sequence

from .timeseries import SeriesBuffer

__all__ = ["Tracer"]


class Tracer:
    """Collects timestamped span timelines from live requests."""

    def __init__(
        self, limit: int = 2000, sample_every: int = 1,
        only_traced: bool = False,
    ) -> None:
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.limit = limit
        self.sample_every = sample_every
        #: Admit *only* requests carrying a distributed TraceContext
        #: (the cluster cells' mode: the router decides what is traced).
        self.only_traced = only_traced
        self.requests: List[object] = []
        self.dropped = 0
        self.skipped = 0
        self._offered = 0

    def register(self, request) -> bool:
        """Arm ``request`` for timeline recording; True when admitted.

        Requests already carrying a distributed
        :class:`~repro.telemetry.context.TraceContext` bypass
        ``sample_every``: the sampling decision was made upstream (by
        the cluster router or the caller's ``traceparent`` flag), and a
        trace that loses hops at some cells is worse than none.  The
        retention ``limit`` still applies.
        """
        index = self._offered
        self._offered += 1
        if getattr(request, "trace", None) is None and (
            self.only_traced or index % self.sample_every != 0
        ):
            self.skipped += 1
            return False
        if len(self.requests) >= self.limit:
            self.dropped += 1
            return False
        request.timeline = []
        self.requests.append(request)
        return True

    @property
    def offered(self) -> int:
        """Total requests offered for registration."""
        return self._offered

    def span_trees(self) -> List[object]:
        """A :class:`~repro.telemetry.spans.SpanNode` tree per request."""
        from .spans import build_span_tree

        return [
            build_span_tree(
                request.timeline or [],
                request.arrival_time,
                request.completion_time,
            )
            for request in self.requests
        ]

    def trace_events(self, gauges: Sequence[SeriesBuffer] = ()) -> List[dict]:
        """Chrome/Perfetto trace events for the collected timelines.

        Device-centric tracks with batch flow arrows; each scraped gauge
        series in ``gauges`` (:attr:`TelemetrySession.gauges
        <repro.telemetry.session.TelemetrySession.gauges>`) adds one
        counter track.
        """
        # Imported lazily: analysis.tracing imports telemetry.spans, so a
        # module-level import here would be order-sensitive.
        from ..analysis.tracing import timeline_trace_events

        return timeline_trace_events(self.requests, gauges=gauges)

    def warn_if_dropped(self) -> None:
        """Emit a UserWarning when the limit truncated the trace."""
        if self.dropped:
            warnings.warn(
                f"trace limit {self.limit} reached: {self.dropped} request(s) "
                "not traced; raise trace_limit or use trace_sample_every",
                stacklevel=2,
            )

    def register_metrics(self, registry) -> None:
        """Publish tracer accounting as registry views."""
        registry.counter_fn(
            "repro_trace_requests_total",
            "Requests admitted for span tracing",
            lambda: len(self.requests),
        )
        registry.counter_fn(
            "repro_trace_dropped_total",
            "Requests refused by the trace limit",
            lambda: self.dropped,
        )
        registry.counter_fn(
            "repro_trace_sampled_out_total",
            "Requests skipped by trace_sample_every",
            lambda: self.skipped,
        )
