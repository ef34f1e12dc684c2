"""Load generation clients.

The paper's methodology (Sec. 4.3) is *closed-loop*: a load balancer caps
the number of concurrent requests per node, so the node always has
exactly ``concurrency`` requests in flight — each completion immediately
triggers the next submission.  :class:`ClosedLoopClient` implements that.
:class:`WorkloadClient` is the open-loop injector: it submits at the
arrival times a :class:`~repro.workload.Workload` source draws.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..core.server import InferenceServer
from ..kernel import ExecutionBackend, RandomStreams
from ..vision.datasets import Dataset

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..workload.source import ArrivalSource

__all__ = ["ClosedLoopClient", "WorkloadClient"]


class ClosedLoopClient:
    """Keeps exactly ``concurrency`` requests outstanding.

    Each worker submits, waits for the completion, thinks, and submits
    again.  There are no deadlines or retries here: those belong to a
    :class:`~repro.serving.fleet.LoadBalancer` with a
    :class:`~repro.serving.resilience.ResiliencePolicy`, the one place
    a failed attempt has another node to go to.
    """

    def __init__(
        self,
        env: ExecutionBackend,
        server: InferenceServer,
        dataset: Dataset,
        concurrency: int,
        streams: RandomStreams,
        think_time_seconds: float = 0.0,
        think_jitter_seconds: float = 0.0,
    ) -> None:
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if think_time_seconds < 0 or think_jitter_seconds < 0:
            raise ValueError("think time must be >= 0")
        self.env = env
        self.server = server
        self.dataset = dataset
        self.concurrency = concurrency
        self.think_time = think_time_seconds
        self.think_jitter = think_jitter_seconds
        self.issued = 0
        self._stopped = False
        self._rng = streams.stream("client:images")
        self._think_rng = streams.stream("client:think")
        for _ in range(concurrency):
            env.spawn(self._worker())

    def stop(self) -> None:
        """Stop issuing new requests (in-flight ones finish)."""
        self._stopped = True

    def _worker(self):
        while not self._stopped:
            image = self.dataset.sample(self._rng)
            self.issued += 1
            yield self.server.submit(image)
            delay = self.think_time
            if self.think_jitter > 0:
                delay += self._think_rng.uniform(0, self.think_jitter)
            if delay > 0:
                yield self.env.timeout(delay)


class WorkloadClient:
    """Open-loop client driven by a :class:`~repro.workload.source.ArrivalSource`.

    The one open-loop client, for every arrival shape (constant,
    diurnal, flash crowd, sessions, trace replay).  The source streams
    lazily — a synthesized 24h day or a 100M-event trace never
    materializes a schedule in memory — and only reports *actual*
    arrivals, so bursty gaps cost no idle re-polls and can never emit
    spurious requests.

    Each submission is stamped with the source's phase label, which
    flows onto the request (per-phase metrics, Perfetto span args).
    ``on_complete`` receives every request's resolution from the
    server's ``done`` event (served, shed, or failed after its last
    attempt).  ``on_exhausted`` fires when a bounded source (duration
    or trace end) runs dry, letting the experiment controller stop
    early.
    """

    def __init__(
        self,
        env: ExecutionBackend,
        server,  # anything with .submit(image, phase=...) -> Event
        source: "ArrivalSource",
        on_complete: Optional[Callable] = None,
        on_exhausted: Optional[Callable] = None,
    ) -> None:
        self.env = env
        self.server = server
        self.source = source
        self.on_complete = on_complete
        self.on_exhausted = on_exhausted
        self.issued = 0
        self.exhausted = False
        self._stopped = False
        env.spawn(self._generator())

    def stop(self) -> None:
        """Stop issuing new requests (in-flight ones finish)."""
        self._stopped = True

    def _generator(self):
        while not self._stopped:
            interval = self.source.next_interval(self.env.now)
            if interval is None:
                self.exhausted = True
                if self.on_exhausted is not None:
                    self.on_exhausted()
                return
            yield self.env.timeout(interval)
            if self._stopped:
                return
            image = self.source.next_image()
            self.issued += 1
            done = self.server.submit(image, phase=self.source.last_phase)
            if self.on_complete is not None:
                done.callbacks.append(self._resolved)

    def _resolved(self, done) -> None:
        self.on_complete(done.value)
