"""Sharded fleet simulation: planet-scale days in minutes.

``repro.cluster`` partitions a fleet into independent routing *cells*
behind a global routing tier, packs the cells onto execution *shards*
(one :class:`~repro.sim.Environment` each), and advances the shards in
conservative lockstep epochs bounded by the minimum cross-shard fabric
latency.  The simulated results are deterministic and invariant to the
shard count and execution mode — sharding decides how fast the answer
arrives, never what the answer is (MODELING.md §12).

Quickstart::

    from repro.cluster import ClusterConfig, run_cluster_experiment
    from repro.core import ServerConfig
    from repro.workload import Workload

    result = run_cluster_experiment(
        ServerConfig(),
        ClusterConfig(cells=8, nodes_per_cell=4, shards=4,
                      execution="process"),
        Workload.constant(200.0, duration_seconds=30.0),
    )
    print(result.summary())

This package must stay importable without any heavyweight analysis
dependency (the ``repro.parallel`` ``HEAVY_MODULES`` rule) because its
shard task runs inside pool workers; the cluster import-hygiene test
enforces it.
"""

from .config import (
    EXEC_PROCESS,
    EXEC_SERIAL,
    ROUTE_HASH,
    ROUTE_LEAST_BACKLOG,
    ROUTE_ROUND_ROBIN,
    ROUTING_POLICIES,
    ClusterConfig,
    ShardPlan,
    route_hash_cell,
)
from .fluid import FluidCellModel, ZeroLoadProfiles, zero_load_profile
from .records import SPAN_NETWORK, CompletionRecord, canonical_order, merge_records
from .runner import ClusterResult, ShardSummary, run_cluster_experiment
from .shards import ShardPoint, ShardRuntime, arrival_stream, run_shard_point
from .timeseries import cluster_timeseries
from .tracing import (
    TraceSampler,
    TraceSpanRecord,
    cluster_trace_events,
    merge_trace_records,
    write_cluster_trace,
)

__all__ = [
    "ClusterConfig",
    "ClusterResult",
    "CompletionRecord",
    "EXEC_PROCESS",
    "EXEC_SERIAL",
    "FluidCellModel",
    "ROUTE_HASH",
    "ROUTE_LEAST_BACKLOG",
    "ROUTE_ROUND_ROBIN",
    "ROUTING_POLICIES",
    "SPAN_NETWORK",
    "ShardPlan",
    "ShardPoint",
    "ShardRuntime",
    "ShardSummary",
    "TraceSampler",
    "TraceSpanRecord",
    "ZeroLoadProfiles",
    "arrival_stream",
    "canonical_order",
    "cluster_timeseries",
    "cluster_trace_events",
    "merge_records",
    "merge_trace_records",
    "route_hash_cell",
    "run_cluster_experiment",
    "run_shard_point",
    "write_cluster_trace",
    "zero_load_profile",
]
