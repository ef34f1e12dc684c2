"""A live serving node: the simulated policy stack on a wall clock.

:class:`LiveNode` deploys the *identical* components every simulated
experiment uses — :class:`~repro.hardware.platform.ServerNode`,
:class:`~repro.core.server.InferenceServer` (dynamic batching, cache
tiers, instances), :class:`~repro.telemetry.session.TelemetrySession` —
on an :class:`~repro.kernel.AsyncioBackend`, so external HTTP requests
flow through exactly the policy code the paper's experiments measure.

The request path for a live submission:

1. ``env.touch()`` stamps ``now`` from the wall clock (arrival time);
2. ``server.submit(image)`` enters the ordinary admission path —
   batcher queue, cache lookup, preprocess, inference;
3. ``env.as_future(done)`` bridges the completion event to an
   :class:`asyncio.Future` the HTTP handler awaits.

Shutdown is graceful: admission closes, every batcher drains its queue
as partial batches (bounded by ``grace_seconds``), then the dispatch
loop is stopped and final metrics are snapshotted.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.config import ServerConfig
from ..core.metrics import MetricsCollector, RunMetrics
from ..core.server import InferenceServer
from ..hardware.calibration import DEFAULT_CALIBRATION, Calibration
from ..hardware.platform import ServerNode
from ..kernel import AsyncioBackend
from ..telemetry import TelemetryConfig, TelemetrySession
from ..vision.datasets import reference_dataset

__all__ = ["LiveNodeConfig", "LiveNode", "NodeShuttingDown"]

_SIZES = ("small", "medium", "large")


class NodeShuttingDown(RuntimeError):
    """Raised for submissions arriving after shutdown began."""


@dataclass(frozen=True, kw_only=True)
class LiveNodeConfig:
    """Deployment of one live serving node."""

    server: ServerConfig = field(default_factory=ServerConfig)
    calibration: Calibration = DEFAULT_CALIBRATION
    gpu_count: int = 1
    #: Simulated seconds per wall second.  ``1.0`` serves in real time;
    #: larger values compress time (useful for accelerated soak tests).
    time_scale: float = 1.0
    #: Batcher-drain deadline on shutdown, in (virtual) seconds.
    grace_seconds: float = 5.0
    telemetry: TelemetryConfig = field(
        default_factory=lambda: TelemetryConfig(enabled=True, trace=False)
    )

    def __post_init__(self) -> None:
        if self.gpu_count < 1:
            raise ValueError(f"gpu_count must be >= 1, got {self.gpu_count}")
        if self.time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {self.time_scale}")
        if self.grace_seconds < 0:
            raise ValueError(f"grace_seconds must be >= 0, got {self.grace_seconds}")


class LiveNode:
    """One wall-clock serving node built from the simulation stack."""

    def __init__(self, config: LiveNodeConfig, *, backend: Optional[AsyncioBackend] = None) -> None:
        self.config = config
        self.env: AsyncioBackend = (
            backend if backend is not None else AsyncioBackend(time_scale=config.time_scale)
        )
        self.node = ServerNode(self.env, config.calibration, gpu_count=config.gpu_count)
        self.collector = MetricsCollector()
        self.session = TelemetrySession(config.telemetry, env=self.env)
        self.server = InferenceServer(
            self.env,
            self.node,
            config.server,
            metrics=self.collector,
            on_complete=self._on_complete,
        )
        self.session.attach_server(self.server)
        self._images = {size: reference_dataset(size).image for size in _SIZES}
        self._task: Optional[asyncio.Task] = None
        self.accepting = False
        self.admitted = 0
        self.completed = 0
        self.rejected = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._final_metrics: Optional[RunMetrics] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> asyncio.Task:
        """Start the kernel dispatch loop as an asyncio task."""
        if self._task is not None:
            raise RuntimeError("node already started")
        self.session.start()
        self.collector.arm(self.env.now)
        self.accepting = True
        self._task = asyncio.get_running_loop().create_task(
            self.env.run_async(stop_on_empty=False), name="repro-kernel"
        )
        return self._task

    async def shutdown(self) -> RunMetrics:
        """Stop admission, drain batchers (bounded), stop the kernel.

        Returns the metrics for everything completed while serving.
        Safe to call more than once; later calls return the same
        metrics object.
        """
        if self._task is None:
            raise RuntimeError("node was never started")
        if self._final_metrics is not None:
            return self._final_metrics
        self.accepting = False
        self.env.touch()
        # In-flight admissions first, then flush the batcher queues as
        # partial batches; the grace period bounds both.
        grace = self.env.timeout(self.config.grace_seconds)
        try:
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.grace_seconds / self.env.time_scale
            )
        except asyncio.TimeoutError:
            pass
        drained = self.server.drain()
        await self.env.as_future(drained | grace)
        self.env.touch()
        self.collector.disarm(self.env.now)
        self.env.request_stop()
        await self._task
        self.session.finalize(self.env.now)
        self._final_metrics = self._metrics_or_empty()
        return self._final_metrics

    def _metrics_or_empty(self) -> RunMetrics:
        try:
            return self.collector.finalize()
        except RuntimeError:
            return RunMetrics.empty()

    # -- request path ------------------------------------------------------

    def _on_complete(self, request) -> None:
        self.completed += 1
        self.session.observe_completion(request, self.env.now)
        if self.completed >= self.admitted:
            self._idle.set()

    async def infer(
        self,
        *,
        size: str = "medium",
        traceparent: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Admit one request and await its completion.

        ``size`` picks the reference image class.
        ``traceparent`` joins an incoming W3C distributed trace: the
        node opens a child span of the caller's context, the request
        carries it through the policy stack, and the response reports
        the server-side ``traceparent`` (malformed headers raise
        ``ValueError``).
        """
        if not self.accepting:
            raise NodeShuttingDown("node is shutting down")
        if size not in self._images:
            raise ValueError(f"size must be one of {_SIZES}, got {size!r}")
        trace = None
        if traceparent is not None:
            from ..telemetry.context import TraceContext

            trace = TraceContext.from_traceparent(traceparent).child(
                "infer", self.admitted
            )
        image = self._images[size]
        arrival = self.env.touch()
        self.admitted += 1
        self._idle.clear()
        done = self.server.submit(image, arrival_time=arrival, trace=trace)
        request = await self.env.as_future(done)
        wall_latency = self.env.wall_now() - arrival
        out = {
            "request_id": request.request_id,
            "latency_seconds": (request.completion_time or self.env.now) - arrival,
            "wall_latency_seconds": wall_latency,
            "batch_size": request.batch_size,
            "gpu_index": request.gpu_index,
            "served_from": request.served_from,
            "outcome": request.outcome,
            "spans": dict(request.spans),
        }
        if trace is not None:
            out["trace_id"] = trace.trace_id
            out["traceparent"] = trace.to_traceparent()
        return out

    # -- observability -----------------------------------------------------

    def prometheus_text(self) -> str:
        return self.session.prometheus_text()

    def history_dict(self, since: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """The ``/metrics/history`` payload (None without a scraper)."""
        return self.session.history_dict(since=since)

    def stats(self) -> Dict[str, Any]:
        server = self.config.server
        cache = self.server.cache
        out: Dict[str, Any] = {
            "model": server.model,
            "runtime": server.runtime,
            "preprocess_device": server.preprocess_device,
            "gpu_count": self.config.gpu_count,
            "time_scale": self.env.time_scale,
            "now": self.env.now,
            "accepting": self.accepting,
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "in_flight": self.admitted - self.completed,
        }
        if cache is not None:
            out["cache"] = cache.stats_dict()
        if self.session.slo is not None:
            out["slo"] = self.session.slo.report(self.env.now).as_dict()
        scraper = self.session.scraper
        if scraper is not None:
            out["scrape"] = {
                "interval_seconds": scraper.interval,
                "samples_taken": scraper.samples_taken,
                "series": len(scraper.store),
                "alerts_firing": scraper.alerts_firing,
            }
        return out
