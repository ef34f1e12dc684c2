"""Shard runtimes: per-shard event loops hosting lazily built cells.

A :class:`ShardRuntime` owns one :class:`~repro.sim.Environment` and
the subset of cells packed onto it.  Cells materialize lazily — a cell
that never receives an arrival costs nothing, which is what makes a
10k-node topology tractable when traffic concentrates on a fraction of
it.  Deliveries are scheduled at *absolute* times
(:meth:`~repro.sim.Environment.schedule_at`), so a delivery computed by
the global router lands at the bit-identical instant in every
execution mode.

This module is also the process-pool worker surface
(:class:`ShardPoint` / :func:`run_shard_point`), so it must keep the
``repro.parallel`` import-hygiene rule: no heavyweight analysis or
plotting imports at module load (enforced by the cluster
import-hygiene tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..core.config import ServerConfig
from ..core.metrics import MetricsCollector
from ..core.request import OUTCOME_OK
from ..hardware.calibration import DEFAULT_CALIBRATION, Calibration
from ..serving.fleet import Fleet
from ..serving.resilience import ResiliencePolicy
from ..sim import Environment, RandomStreams
from ..sim.events import Event
from ..vision.datasets import reference_dataset
from ..workload import Workload
from .config import (
    ROUTE_ROUND_ROBIN,
    ClusterConfig,
    route_hash_cell,
)
from .fluid import FluidCellModel, ZeroLoadProfiles
from .records import SPAN_NETWORK, CompletionRecord

__all__ = [
    "Arrival",
    "arrival_stream",
    "CellRuntime",
    "ShardRuntime",
    "ShardPoint",
    "run_shard_point",
]


class Arrival:
    """One routed request leaving the global routing tier."""

    __slots__ = ("seq", "t", "image", "phase", "user", "key", "trace")

    def __init__(self, seq, t, image, phase, user, key, trace=None) -> None:
        self.seq = seq
        self.t = t
        self.image = image
        self.phase = phase
        self.user = user
        self.key = key
        #: Distributed TraceContext stamped by the routing tier, or None.
        self.trace = trace


def arrival_stream(
    workload: Workload,
    seed: int,
    *,
    max_requests: Optional[int] = None,
    max_sim_seconds: Optional[float] = None,
) -> Iterator[Arrival]:
    """Draw the workload's arrival sequence, identically everywhere.

    Uses the exact stream prefix (``fleet``), default dataset, and draw
    order of :func:`~repro.serving.fleet.run_fleet_experiment`, so a
    one-cell cluster replays the very same floats — and every process
    worker, consuming the whole stream and filtering to its own cells,
    sees the very same arrivals as the serial coordinator.
    """
    source = workload.source(
        RandomStreams(seed), prefix="fleet",
        default_dataset=reference_dataset("medium"),
    )
    now = 0.0
    seq = 0
    while True:
        if max_requests is not None and seq >= max_requests:
            return
        interval = source.next_interval(now)
        if interval is None:
            return
        now += interval
        if max_sim_seconds is not None and now > max_sim_seconds:
            return
        image = source.next_image()
        yield Arrival(seq, now, image, source.last_phase,
                      source.last_user, source.last_key)
        seq += 1


def route_cell(cluster: ClusterConfig, arrival: Arrival) -> int:
    """Feedback-free routing (hash affinity / round-robin).

    Stale-backlog routing lives in the serial coordinator — it needs
    cross-shard snapshots a pool worker cannot see.
    """
    if cluster.cells == 1:
        return 0
    if cluster.routing == ROUTE_ROUND_ROBIN:
        return arrival.seq % cluster.cells
    key = arrival.user if arrival.user is not None else arrival.seq
    return route_hash_cell(cluster.topology_seed, key, cluster.cells)


class CellRuntime:
    """One routing cell: a lazily built fleet plus its record sink."""

    __slots__ = (
        "cell_id", "env", "cluster", "server_config", "calibration",
        "resilience", "ingress", "egress", "records", "collector",
        "fleet", "fluid", "tracer", "trace_records",
    )

    def __init__(
        self,
        env: Environment,
        cell_id: int,
        cluster: ClusterConfig,
        server_config: ServerConfig,
        calibration: Calibration,
        resilience: Optional[ResiliencePolicy],
        profiles: ZeroLoadProfiles,
        tracer=None,
    ) -> None:
        self.env = env
        self.cell_id = cell_id
        self.cluster = cluster
        self.server_config = server_config
        self.calibration = calibration
        self.resilience = resilience
        self.ingress = cluster.ingress_latency(cell_id)
        self.egress = cluster.egress_latency(cell_id)
        self.records: List[CompletionRecord] = []
        #: Arms trace-carrying requests only (distributed tracing).
        self.tracer = tracer
        self.trace_records: List = []
        #: Never armed: its run-global counters feed the merged metrics.
        self.collector = MetricsCollector()
        self.fleet: Optional[Fleet] = None
        self.fluid: Optional[FluidCellModel] = None
        if cluster.fluid:
            self.fluid = FluidCellModel(
                profiles,
                hot_threshold=cluster.fluid_hot_threshold,
                hot_window_seconds=cluster.fluid_hot_window_seconds,
            )

    def _ensure_fleet(self) -> Fleet:
        if self.fleet is None:
            cluster = self.cluster
            self.fleet = Fleet(
                self.env,
                node_count=cluster.nodes_per_cell,
                server_config=self.server_config,
                calibration=self.calibration,
                gpu_count=cluster.gpu_count,
                per_node_cap=cluster.per_node_cap,
                policy=cluster.cell_policy,
                metrics=self.collector,
                on_complete=self._record,
                resilience=self.resilience,
                streams=RandomStreams(0).spawn(f"cell:{self.cell_id}")
                if self.resilience is not None else None,
                node_ids=cluster.node_ids(self.cell_id),
            )
            if self.tracer is not None:
                for server in self.fleet.servers:
                    server.tracer = self.tracer
        return self.fleet

    def _record(self, request) -> None:
        self.records.append(
            CompletionRecord.from_request(
                request, ingress=self.ingress, egress=self.egress)
        )
        if getattr(request, "trace", None) is not None and request.timeline:
            from .tracing import TraceSpanRecord

            self.trace_records.append(
                TraceSpanRecord.from_request(
                    request, cell_id=self.cell_id,
                    ingress=self.ingress, egress=self.egress,
                )
            )

    def inject(self, image, phase: Optional[str], trace=None) -> None:
        """Deliver one request to the cell (called at the delivery time)."""
        if self.fluid is not None and self.fleet is None:
            if not self.fluid.note_arrival(self.env.now):
                # Fluid-served requests have no discrete spans to trace;
                # a sampled session simply has no in-cell record here.
                self._fluid_complete(image, phase)
                return
            # The cell just turned hot: this arrival and everything after
            # it runs on the discrete-event fleet.
        self._ensure_fleet().submit(image, phase=phase, trace=trace)

    def _fluid_complete(self, image, phase: Optional[str]) -> None:
        assert self.fluid is not None
        now = self.env.now
        latency, spans, batch = self.fluid.serve(image)
        self.fluid.fluid_served += 1
        self.collector.total_completed += 1
        fabric = self.ingress + self.egress
        if fabric > 0.0:
            spans[SPAN_NETWORK] = fabric
        self.records.append(
            CompletionRecord(
                arrival_time=now - self.ingress,
                completion_time=now + latency + self.egress,
                latency=latency + fabric,
                outcome=OUTCOME_OK,
                spans=spans,
                batch_size=batch,
                eviction_count=0,
                served_from=None,
                workload_phase=phase,
            )
        )

    @property
    def load(self) -> int:
        """Backlog + in-flight, the stale-snapshot routing signal."""
        if self.fleet is None:
            return 0
        balancer = self.fleet.balancer
        return balancer.backlog_depth + balancer.total_outstanding


class ShardRuntime:
    """One event loop advancing a packed subset of cells in lockstep."""

    def __init__(
        self,
        shard_id: int,
        cell_ids: Tuple[int, ...],
        cluster: ClusterConfig,
        server_config: ServerConfig,
        calibration: Calibration,
        resilience: Optional[ResiliencePolicy] = None,
        trace_limit: int = 0,
    ) -> None:
        self.shard_id = shard_id
        self.cell_ids = cell_ids
        self.cluster = cluster
        self.server_config = server_config
        self.calibration = calibration
        self.resilience = resilience
        #: Per-cell retention cap for distributed tracing (0 = off).
        #: Per *cell* so the exported trace set is a pure function of the
        #: topology, invariant to the shard packing.
        self.trace_limit = trace_limit
        self.env = Environment()
        #: Zero-load probes shared by this shard's fluid cells.
        self.profiles = ZeroLoadProfiles(
            server_config, calibration, cluster.gpu_count)
        self.cells: Dict[int, CellRuntime] = {}
        self.delivered = 0

    def cell(self, cell_id: int) -> CellRuntime:
        runtime = self.cells.get(cell_id)
        if runtime is None:
            tracer = None
            if self.trace_limit > 0:
                from ..telemetry.tracer import Tracer

                tracer = Tracer(limit=self.trace_limit, only_traced=True)
            runtime = CellRuntime(
                self.env, cell_id, self.cluster, self.server_config,
                self.calibration, self.resilience, self.profiles,
                tracer=tracer,
            )
            self.cells[cell_id] = runtime
        return runtime

    def deliver(self, cell_id: int, arrival: Arrival, deliver_t: float) -> None:
        """Schedule one fabric delivery at its exact absolute time."""
        cell = self.cell(cell_id)
        event = Event(self.env)
        event._ok = True
        event._value = None
        event.callbacks.append(
            lambda _event, cell=cell, arrival=arrival: cell.inject(
                arrival.image, arrival.phase, arrival.trace)
        )
        self.env.schedule_at(event, deliver_t)
        self.delivered += 1

    def cell_load(self, cell_id: int) -> int:
        runtime = self.cells.get(cell_id)
        return 0 if runtime is None else runtime.load

    # -- result surface ----------------------------------------------------

    def per_cell_records(self) -> List[Tuple[int, List[CompletionRecord]]]:
        return [(cell_id, runtime.records)
                for cell_id, runtime in self.cells.items()]

    def trace_records(self) -> List:
        """Every cell's trace span records, in ascending cell-id order."""
        records: List = []
        for cell_id in sorted(self.cells):
            records.extend(self.cells[cell_id].trace_records)
        return records

    def counters(self) -> Dict[str, int]:
        timeouts = retries = shed = fluid = 0
        for runtime in self.cells.values():
            timeouts += runtime.collector.total_timeouts
            retries += runtime.collector.total_retries
            shed += runtime.collector.total_shed
            if runtime.fluid is not None:
                fluid += runtime.fluid.fluid_served
        return {
            "timeouts": timeouts,
            "retries": retries,
            "shed": shed,
            "fluid_served": fluid,
            "delivered": self.delivered,
            "cells_touched": len(self.cells),
        }


# -- process-pool execution ------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class ShardPoint:
    """Picklable spec for one shard executed in a pool worker.

    The worker regenerates the *entire* arrival stream from
    ``(workload, seed)`` — identical draws everywhere — routes every
    arrival with the feedback-free policy, keeps only its own cells,
    and runs them to completion in one pass (no epochs needed: with
    hash/round-robin routing the lockstep window is pure bookkeeping).
    """

    cluster: ClusterConfig
    server: ServerConfig
    calibration: Calibration = DEFAULT_CALIBRATION
    workload: Workload
    seed: int = 0
    cell_ids: Tuple[int, ...] = ()
    shard_id: int = 0
    max_requests: Optional[int] = None
    max_sim_seconds: Optional[float] = None
    #: Distributed-tracing session budget (0 = tracing off).  Every
    #: worker regenerates the same arrival stream, so every worker
    #: samples the identical sessions.
    trace_sessions: int = 0
    #: Per-cell retention cap for traced requests.
    trace_limit: int = 2000


def run_shard_point(point: ShardPoint) -> Dict[str, Any]:
    """Task: simulate one shard's cells against the full workload."""
    runtime = ShardRuntime(
        point.shard_id, point.cell_ids, point.cluster, point.server,
        point.calibration,
        trace_limit=point.trace_limit if point.trace_sessions > 0 else 0,
    )
    sampler = None
    if point.trace_sessions > 0:
        from .tracing import TraceSampler

        sampler = TraceSampler(point.seed, point.trace_sessions)
    own = frozenset(point.cell_ids)
    issued = 0
    for arrival in arrival_stream(
        point.workload, point.seed,
        max_requests=point.max_requests,
        max_sim_seconds=point.max_sim_seconds,
    ):
        issued += 1
        if sampler is not None:
            # Sampled for every arrival (not just this shard's): session
            # admission is first-come over the global stream.
            arrival.trace = sampler.trace_for(arrival)
        cell_id = route_cell(point.cluster, arrival)
        if cell_id not in own:
            continue
        runtime.deliver(
            cell_id, arrival,
            arrival.t + point.cluster.ingress_latency(cell_id),
        )
    # Run the shard's queue dry: no more input is coming.
    runtime.env.run()
    return {
        "shard_id": point.shard_id,
        "issued": issued,
        "cells": {cell_id: records
                  for cell_id, records in runtime.per_cell_records()},
        "counters": runtime.counters(),
        "traces": runtime.trace_records(),
        "sessions": sampler.sessions if sampler is not None else {},
    }
