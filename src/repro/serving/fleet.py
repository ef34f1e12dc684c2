"""Multi-node serving: the load balancer of paper Sec. 2.1.

"A load balancer within the datacenter receives incoming requests and
strategically distributes them among the available processing servers
... the load balancer imposes a cap on the number of concurrent
requests each server can handle.  In instances where incoming requests
exceed the system's predefined capacity, additional servers are added."

This module implements exactly that: a :class:`Fleet` of identical
:class:`~repro.core.server.InferenceServer` nodes behind a
:class:`LoadBalancer` with pluggable dispatch policies and a per-node
concurrency cap, plus :func:`plan_capacity` — the node-count sizing
loop the paper's single-node throughput numbers exist to inform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..core.config import ServerConfig
from ..core.metrics import MetricsCollector, RunMetrics
from ..core.request import OUTCOME_SHED, OUTCOME_TIMEOUT, InferenceRequest
from ..core.server import InferenceServer
from ..hardware.calibration import DEFAULT_CALIBRATION, Calibration
from ..hardware.platform import ServerNode
from ..kernel import Event, ExecutionBackend, RandomStreams, Store
from ..vision.datasets import Dataset, reference_dataset
from .resilience import CircuitBreaker, ResiliencePolicy
from .runner import RunSession

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from ..faults import FaultPlan
    from ..workload import Workload

__all__ = [
    "DispatchPolicy",
    "ROUND_ROBIN",
    "LEAST_OUTSTANDING",
    "LoadBalancer",
    "Fleet",
    "FleetResult",
    "run_fleet_experiment",
    "plan_capacity",
    "CapacityPlan",
]

ROUND_ROBIN = "round_robin"
LEAST_OUTSTANDING = "least_outstanding"
DispatchPolicy = str
_POLICIES = (ROUND_ROBIN, LEAST_OUTSTANDING)


class _Job:
    """One request travelling through the balancer (possibly retried)."""

    __slots__ = ("image", "done", "enqueued_at", "attempt", "phase", "trace")

    def __init__(self, image, done: Event, enqueued_at: float,
                 phase: Optional[str] = None, trace=None) -> None:
        self.image = image
        self.done = done
        self.enqueued_at = enqueued_at
        self.attempt = 0
        self.phase = phase
        self.trace = trace


class LoadBalancer:
    """Dispatches requests across nodes with a per-node concurrency cap.

    When every node is at its cap, requests wait in the balancer's own
    queue (the datacenter-level backlog the paper's model assumes gets
    absorbed by *adding servers*).

    With a :class:`~repro.serving.resilience.ResiliencePolicy` the
    balancer also enforces per-attempt deadlines (racing each dispatch
    against a timer), retries timed-out attempts with exponential
    backoff, sheds new work when its backlog exceeds ``max_backlog``,
    and ejects failing nodes behind per-node circuit breakers.  With
    ``resilience=None`` (the default) none of that machinery exists and
    the dispatch path is identical to the fault-free balancer.
    """

    def __init__(
        self,
        env: ExecutionBackend,
        servers: List[InferenceServer],
        per_node_cap: int,
        policy: DispatchPolicy = LEAST_OUTSTANDING,
        *,
        resilience: Optional[ResiliencePolicy] = None,
        streams: Optional[RandomStreams] = None,
        metrics: Optional[MetricsCollector] = None,
        node_ids: Optional[Sequence[str]] = None,
    ) -> None:
        if not servers:
            raise ValueError("fleet needs at least one server")
        if per_node_cap < 1:
            raise ValueError(f"per_node_cap must be >= 1, got {per_node_cap}")
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        if node_ids is None:
            node_ids = tuple(str(index) for index in range(len(servers)))
        else:
            node_ids = tuple(str(node_id) for node_id in node_ids)
            if len(node_ids) != len(servers):
                raise ValueError(
                    f"{len(node_ids)} node ids for {len(servers)} servers")
            if len(set(node_ids)) != len(node_ids):
                raise ValueError(f"node ids must be unique, got {node_ids}")
        #: Stable per-node identity used for metric labels.  Defaults to
        #: the node index; a sharded cluster passes globally unique ids
        #: so two balancers sharing one registry never collide.
        self.node_ids: Tuple[str, ...] = node_ids
        self.env = env
        self.servers = servers
        self.per_node_cap = per_node_cap
        self.policy = policy
        self.resilience = resilience
        self.metrics = metrics
        self.outstanding = [0] * len(servers)
        self.dispatched = [0] * len(servers)
        #: Health flags flipped by the fault injector on node outages.
        self.node_up = [True] * len(servers)
        self.breakers: Optional[List[CircuitBreaker]] = None
        if resilience is not None and resilience.breaker is not None:
            self.breakers = [CircuitBreaker(resilience.breaker) for _ in servers]
        self._retry_rng = None
        if resilience is not None and streams is not None:
            self._retry_rng = streams.stream("balancer:retry")
        # Resilience counters (balancer's own view; the collector holds
        # the measure-window versions).
        self.timeouts = 0
        self.retries = 0
        self.shed = 0
        #: Deepest backlog seen right after a submit (shed or enqueued).
        self.peak_backlog = 0
        self._rr = itertools.cycle(range(len(servers)))
        self._backlog: Store = Store(env)
        env.spawn(self._dispatcher())

    @property
    def backlog_depth(self) -> int:
        return self._backlog.size

    @property
    def total_outstanding(self) -> int:
        return sum(self.outstanding)

    def set_node_up(self, index: int, up: bool) -> None:
        """Mark a node up or down.  Node-outage fault injection uses it,
        and so does :class:`~repro.serving.autoscaler.AutoscaledFleet`
        for the nodes outside its active set."""
        self.node_up[index] = up

    def register_metrics(self, registry) -> None:
        """Publish balancer state as registry views (observation only)."""
        registry.gauge_fn(
            "repro_balancer_backlog_depth",
            "Requests waiting in the balancer queue",
            lambda: self.backlog_depth,
        )
        registry.counter_fn(
            "repro_balancer_timeouts_total",
            "Dispatch attempts that exceeded their deadline",
            lambda: self.timeouts,
        )
        registry.counter_fn(
            "repro_balancer_retries_total",
            "Attempts re-queued after a timeout",
            lambda: self.retries,
        )
        registry.counter_fn(
            "repro_balancer_shed_total",
            "Requests rejected by backlog admission control",
            lambda: self.shed,
        )
        for index, node_id in enumerate(self.node_ids):
            registry.gauge_fn(
                "repro_node_outstanding",
                "In-flight requests on the node",
                lambda i=index: self.outstanding[i],
                node=node_id,
            )
            registry.counter_fn(
                "repro_node_dispatched_total",
                "Requests routed to the node",
                lambda i=index: self.dispatched[i],
                node=node_id,
            )
            registry.gauge_fn(
                "repro_node_up",
                "1 when the node is healthy, 0 during an outage",
                lambda i=index: 1.0 if self.node_up[i] else 0.0,
                node=node_id,
            )
        if self.breakers is not None:
            registry.counter_fn(
                "repro_breaker_opens_total",
                "Circuit-breaker open transitions across all nodes",
                lambda: sum(b.open_transitions for b in self.breakers),
            )

    def submit(self, image, phase: Optional[str] = None, trace=None) -> Event:
        """Route one request; the returned event completes with the
        finished request (same contract as ``InferenceServer.submit``).

        ``trace`` is the distributed trace hop from the caller; the
        balancer carries it through retries so every attempt of one
        request lands in the same trace."""
        done = self.env.event()
        backlog = self._backlog
        if (
            self.resilience is not None
            and self.resilience.max_backlog is not None
            and backlog.size >= self.resilience.max_backlog
        ):
            self._shed(image, done, phase, trace)
        else:
            backlog.put(_Job(image, done, self.env.now, phase=phase, trace=trace))
        # Read after the put: an item a waiting dispatcher takes at once
        # never counts as backlog.
        if backlog.size > self.peak_backlog:
            self.peak_backlog = backlog.size
        return done

    def _shed(self, image, done: Event, phase: Optional[str] = None,
              trace=None) -> None:
        """Admission control: reject without touching any node."""
        self.shed += 1
        if self.metrics is not None:
            self.metrics.note_shed()
        request = InferenceRequest(image, arrival_time=self.env.now, phase=phase)
        request.trace = trace
        request.outcome = OUTCOME_SHED
        done.succeed(request)

    # -- dispatch loop -------------------------------------------------------

    def _node_available(self, index: int, now: float) -> bool:
        if not self.node_up[index]:
            return False
        if self.outstanding[index] >= self.per_node_cap:
            return False
        if self.breakers is not None and not self.breakers[index].allows(now):
            return False
        return True

    def _pick_node(self) -> Optional[int]:
        now = self.env.now
        if self.policy == ROUND_ROBIN:
            for _ in range(len(self.servers)):
                index = next(self._rr)
                if self._node_available(index, now):
                    return index
            return None
        # Least outstanding among available nodes.  This runs once per
        # dispatch, so at fleet scale it must stay a single allocation-free
        # scan: no candidate list, no min() key callable, and an early
        # exit on the first idle node (the first zero is the first
        # minimum, since every earlier available node had more in flight).
        outstanding = self.outstanding
        node_up = self.node_up
        cap = self.per_node_cap
        breakers = self.breakers
        best = None
        best_load = cap
        for index in range(len(outstanding)):
            load = outstanding[index]
            if load >= best_load or not node_up[index]:
                continue
            if breakers is not None and not breakers[index].allows(now):
                continue
            if load == 0:
                return index
            best = index
            best_load = load
        return best

    def _dispatcher(self):
        while True:
            job = yield self._backlog.get()
            while True:
                index = self._pick_node()
                if index is not None:
                    break
                # All nodes at cap (or unavailable): back off briefly.
                yield self.env.timeout(0.5e-3)
            self.outstanding[index] += 1
            self.dispatched[index] += 1
            if self.breakers is not None:
                self.breakers[index].note_dispatch()
            deadline = None
            if self.resilience is not None and self.resilience.deadline_seconds is not None:
                deadline = self.env.now + self.resilience.deadline_seconds
            # Backdated so balancer queueing (and earlier failed
            # attempts) count in request latency.
            inner = self.servers[index].submit(
                job.image, arrival_time=job.enqueued_at,
                deadline=deadline, attempt=job.attempt, phase=job.phase,
                trace=job.trace,
            )
            self.env.spawn(self._track(index, job, inner, deadline))

    def _track(self, index: int, job: _Job, inner: Event, deadline: Optional[float]):
        if deadline is None:
            request = yield inner
            self._settle_success(index, job, request)
            return
        yield inner | self.env.timeout(deadline - self.env.now)
        if inner.triggered:
            request = inner.value
            if request.deadline_exceeded:
                # Finished exactly at/after the deadline: the server has
                # already recorded it as a timeout; treat it likewise.
                self.outstanding[index] -= 1
                self._note_attempt_timeout(index)
                self._retry_or_fail(job)
            else:
                self._settle_success(index, job, request)
            return
        # Deadline fired with the attempt still in flight: give up on it
        # now (retry elsewhere) and release the node slot whenever the
        # stalled attempt finally drains.
        self._note_attempt_timeout(index)
        self.env.spawn(self._drain(index, inner))
        self._retry_or_fail(job)

    def _settle_success(self, index: int, job: _Job, request) -> None:
        self.outstanding[index] -= 1
        if self.breakers is not None:
            self.breakers[index].record_success(self.env.now)
        job.done.succeed(request)

    def _note_attempt_timeout(self, index: int) -> None:
        self.timeouts += 1
        if self.breakers is not None:
            self.breakers[index].record_failure(self.env.now)

    def _drain(self, index: int, inner: Event):
        yield inner
        self.outstanding[index] -= 1

    def _retry_or_fail(self, job: _Job) -> None:
        assert self.resilience is not None
        next_attempt = job.attempt + 1
        if next_attempt >= self.resilience.retry.max_attempts:
            # Attempt budget exhausted: fail the request to the caller.
            # (Each timed-out attempt was already recorded server-side.)
            request = InferenceRequest(job.image, arrival_time=job.enqueued_at,
                                       attempt=job.attempt, phase=job.phase)
            request.trace = job.trace
            request.outcome = OUTCOME_TIMEOUT
            job.done.succeed(request)
            return
        job.attempt = next_attempt
        self.retries += 1
        if self.metrics is not None:
            self.metrics.note_retry()
        self.env.spawn(self._requeue(job))

    def _requeue(self, job: _Job):
        delay = self.resilience.retry.backoff_seconds(job.attempt, self._retry_rng)
        if delay > 0:
            yield self.env.timeout(delay)
        self._backlog.put(job)


class Fleet:
    """N identical server nodes behind one load balancer."""

    def __init__(
        self,
        env: ExecutionBackend,
        node_count: int,
        server_config: ServerConfig,
        calibration: Calibration = DEFAULT_CALIBRATION,
        gpu_count: int = 1,
        per_node_cap: int = 512,
        policy: DispatchPolicy = LEAST_OUTSTANDING,
        metrics: Optional[MetricsCollector] = None,
        on_complete=None,
        resilience: Optional[ResiliencePolicy] = None,
        streams: Optional[RandomStreams] = None,
        node_ids: Optional[Sequence[str]] = None,
    ) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        self.env = env
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.nodes: List[ServerNode] = [
            ServerNode(env, calibration, gpu_count=gpu_count) for _ in range(node_count)
        ]
        self.servers: List[InferenceServer] = [
            InferenceServer(env, node, server_config, metrics=self.metrics,
                            on_complete=on_complete)
            for node in self.nodes
        ]
        self.balancer = LoadBalancer(
            env, self.servers, per_node_cap, policy,
            resilience=resilience, streams=streams, metrics=self.metrics,
            node_ids=node_ids,
        )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def submit(self, image, phase: Optional[str] = None, trace=None) -> Event:
        return self.balancer.submit(image, phase=phase, trace=trace)


@dataclass(frozen=True)
class FleetResult:
    """Measurements of one fleet experiment."""

    node_count: int
    offered_rate: float
    metrics: RunMetrics
    dispatched_per_node: List[int]
    peak_backlog: int
    #: Faults injected during the run (0 for fault-free experiments).
    fault_count: int = 0
    #: Circuit-breaker open transitions across all nodes.
    breaker_opens: int = 0
    #: The run's telemetry session, or ``None`` when disabled.
    telemetry: Optional[object] = field(default=None, compare=False)

    def to_dict(self) -> Dict[str, object]:
        """Flat dict of the fleet measurements (see
        :func:`repro.analysis.export.result_to_dict`)."""
        from ..analysis.export import result_to_dict

        return result_to_dict(self)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"fleet[{self.node_count}] offered={self.offered_rate:.0f}/s "
            f"throughput={self.throughput:.1f}/s goodput={self.goodput_fraction:.1%} "
            f"p99={self.metrics.latency.p99 * 1e3:.1f}ms"
        )

    @property
    def throughput(self) -> float:
        return self.metrics.throughput

    @property
    def goodput_fraction(self) -> float:
        """Fraction of the offered load actually served."""
        if self.offered_rate <= 0:
            return 1.0
        return min(1.0, self.throughput / self.offered_rate)

    @property
    def balance_ratio(self) -> float:
        """max/min dispatched requests per node (1.0 = perfectly even)."""
        low = min(self.dispatched_per_node)
        if low == 0:
            return float("inf")
        return max(self.dispatched_per_node) / low


def run_fleet_experiment(
    server_config: ServerConfig,
    node_count: int,
    *,
    workload: "Workload",
    calibration: Calibration = DEFAULT_CALIBRATION,
    gpu_count: int = 1,
    per_node_cap: int = 512,
    policy: DispatchPolicy = LEAST_OUTSTANDING,
    seed: int = 0,
    warmup_requests: int = 300,
    measure_requests: int = 2000,
    max_sim_seconds: float = 60.0,
    resilience: Optional[ResiliencePolicy] = None,
    faults: Optional["FaultPlan"] = None,
    telemetry=None,
) -> FleetResult:
    """Open-loop load against an N-node fleet.

    Traffic comes from ``workload`` (a :class:`repro.workload.Workload`:
    constant Poisson, diurnal curves, flash crowds, sessions, trace
    replay, ...), injected by a :class:`~repro.serving.client.WorkloadClient`.
    The warm-up/measure protocol is the single-node runners'
    :class:`~repro.serving.runner.RunSession`; a fleet meters no energy.

    ``resilience`` enables deadlines/retries/shedding/circuit-breaking
    in the balancer; ``faults`` injects the given fault plan.  An
    enabled plan with ``resilience=None`` gets the default
    :class:`ResiliencePolicy` (faults without deadlines would just hang
    the tail).  Both default to ``None``, which reproduces the
    fault-free experiment exactly (no extra processes, no extra RNG
    draws).
    """
    workload.validate()
    if resilience is None and faults is not None and faults.enabled:
        resilience = ResiliencePolicy()
    run = RunSession(seed=seed, telemetry=telemetry)
    session = run.session
    if warmup_requests == 0:
        run.arm_immediately()  # measurement window arms at t=0
    resolved = 0  # logical requests whose done event fired

    def finish_if_drained():
        # Bounded workloads (duration or trace end) may run dry before
        # the completion targets; a request has resolved once it is
        # served, shed, or failed after its last attempt.
        if client.exhausted and resolved >= client.issued:
            run.end_now()

    def on_resolved(_request):
        nonlocal resolved
        resolved += 1
        finish_if_drained()

    fleet = Fleet(
        run.env,
        node_count=node_count,
        server_config=server_config,
        calibration=calibration,
        gpu_count=gpu_count,
        per_node_cap=per_node_cap,
        policy=policy,
        metrics=run.collector,
        on_complete=run.completion_observer(
            warmup_requests, warmup_requests + measure_requests),
        resilience=resilience,
        streams=run.streams,
    )
    if session is not None:
        # One registration of the shared collector (the servers share
        # it, so per-server registration would duplicate); per-node
        # series come from the balancer's views.
        run.collector.register_metrics(session.registry)
        fleet.balancer.register_metrics(session.registry)
        for server in fleet.servers:
            server.tracer = session.tracer
        session.start()

    injector = None
    if faults is not None and faults.enabled:
        from ..faults.injector import FaultInjector

        injector = FaultInjector(run.env, run.streams, faults)
        injector.attach_fleet(fleet)
        injector.start()
        if session is not None:
            injector.register_metrics(session.registry)
    client = run.open_loop_client(
        fleet, workload, prefix="fleet",
        default_dataset=reference_dataset("medium"),
        on_complete=on_resolved, on_exhausted=finish_if_drained,
    )
    run.execute(client, max_sim_seconds)

    return FleetResult(
        telemetry=session,
        node_count=node_count,
        offered_rate=workload.offered_rate_hint(),
        metrics=run.finish(),
        dispatched_per_node=list(fleet.balancer.dispatched),
        peak_backlog=fleet.balancer.peak_backlog,
        fault_count=injector.fault_count if injector is not None else 0,
        breaker_opens=(
            sum(b.open_transitions for b in fleet.balancer.breakers)
            if fleet.balancer.breakers is not None
            else 0
        ),
    )


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of the node-count sizing loop."""

    offered_rate: float
    p99_slo_seconds: float
    nodes_required: int
    achieved_p99: float
    evaluations: Dict[int, float]  # node_count -> p99


def plan_capacity(
    server_config: ServerConfig,
    offered_rate: float,
    p99_slo_seconds: float,
    dataset: Optional[Dataset] = None,
    max_nodes: int = 16,
    **run_kwargs,
) -> CapacityPlan:
    """Find the smallest fleet meeting a p99 SLO at an offered rate.

    This is the planning question the paper's per-node throughput
    analysis exists to answer ("maximize the throughput of each node to
    subsequently minimize the number of nodes required").
    """
    if p99_slo_seconds <= 0:
        raise ValueError("p99 SLO must be positive")
    from ..workload import Workload

    workload = Workload.constant(offered_rate, dataset=dataset)
    evaluations: Dict[int, float] = {}
    nodes = 1
    while nodes <= max_nodes:
        result = run_fleet_experiment(
            server_config,
            node_count=nodes,
            workload=workload,
            **run_kwargs,
        )
        p99 = result.metrics.latency.p99
        evaluations[nodes] = p99
        served = result.goodput_fraction
        if p99 <= p99_slo_seconds and served > 0.95:
            return CapacityPlan(
                offered_rate=offered_rate,
                p99_slo_seconds=p99_slo_seconds,
                nodes_required=nodes,
                achieved_p99=p99,
                evaluations=evaluations,
            )
        nodes += 1
    raise RuntimeError(
        f"no fleet of <= {max_nodes} nodes meets p99 <= {p99_slo_seconds}s "
        f"at {offered_rate} req/s (best: {min(evaluations.values()):.3f}s)"
    )
