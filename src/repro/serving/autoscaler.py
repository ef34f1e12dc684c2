"""Reactive fleet autoscaling (closing the loop on paper Sec. 2.1).

"In instances where incoming requests exceed the system's predefined
capacity, additional servers are added to maintain performance."  The
:class:`AutoscaledFleet` starts with a node pool, activates a subset,
and a controller loop grows/shrinks the active set from the observed
per-node outstanding load — the standard target-utilization policy.

Simulated node "provisioning" takes ``provision_delay_seconds`` (boot +
model load + TensorRT engine warm-up), which is what makes bursty load
interesting: capacity arrives *late*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.config import ServerConfig
from ..core.metrics import MetricsCollector
from ..hardware.calibration import DEFAULT_CALIBRATION, Calibration
from ..kernel import Event, ExecutionBackend
from .fleet import Fleet
from .resilience import ResiliencePolicy

__all__ = ["AutoscalerPolicy", "AutoscaledFleet", "ScalingEvent"]


@dataclass(frozen=True)
class AutoscalerPolicy:
    """Target-load scaling policy."""

    #: Per-node outstanding requests the controller aims for.
    target_outstanding_per_node: float = 256.0
    #: Scale out when observed/target exceeds this factor...
    scale_out_threshold: float = 1.25
    #: ...and in when it falls below this factor.
    scale_in_threshold: float = 0.5
    #: Controller evaluation period.
    interval_seconds: float = 0.25
    #: Boot + model load + engine warm-up before a node takes traffic.
    provision_delay_seconds: float = 2.0
    #: Minimum time between scaling actions (anti-flapping).
    cooldown_seconds: float = 1.0
    #: Hard per-node in-flight cap (the paper's load-balancer cap);
    #: excess requests wait in the balancer backlog.
    per_node_cap: int = 512
    #: Active-set bounds.
    min_nodes: int = 1
    max_nodes: int = 8
    #: Shed new requests once the balancer backlog reaches this depth
    #: (``None`` = never shed, the original unbounded-queue behaviour).
    #: Under a flash crowd this is what bounds queueing delay while the
    #: scale-out capacity is still provisioning.
    max_backlog: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_backlog is not None and self.max_backlog < 1:
            raise ValueError("max_backlog must be >= 1 when set")
        if self.target_outstanding_per_node <= 0:
            raise ValueError("target outstanding must be positive")
        if self.scale_out_threshold <= 1.0:
            raise ValueError("scale_out_threshold must exceed 1.0")
        if not 0 < self.scale_in_threshold < 1.0:
            raise ValueError("scale_in_threshold must be in (0, 1)")
        if self.interval_seconds <= 0 or self.provision_delay_seconds < 0:
            raise ValueError("intervals must be positive")
        if self.cooldown_seconds < 0:
            raise ValueError("cooldown must be >= 0")
        if not 1 <= self.min_nodes <= self.max_nodes:
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if self.per_node_cap < 1:
            raise ValueError("per_node_cap must be >= 1")


@dataclass(frozen=True)
class ScalingEvent:
    """One controller action, for the scaling timeline."""

    at_time: float
    action: str  # "scale_out" | "scale_in"
    active_nodes: int


class AutoscaledFleet:
    """A fleet whose active node count follows the offered load.

    All ``max_nodes`` nodes exist up front in one
    :class:`~repro.serving.fleet.Fleet` (a warm pool) and take traffic
    through its :class:`~repro.serving.fleet.LoadBalancer`, which marks
    the nodes outside the active prefix down.  A scale-in stops routing
    to the last active node; its in-flight requests still finish.
    """

    def __init__(
        self,
        env: ExecutionBackend,
        server_config: ServerConfig,
        policy: AutoscalerPolicy,
        calibration: Calibration = DEFAULT_CALIBRATION,
        gpu_count: int = 1,
        metrics: Optional[MetricsCollector] = None,
        on_complete=None,
    ) -> None:
        self.env = env
        self.policy = policy
        # Admission control only: no deadline, no retries, no breaker.
        resilience = None
        if policy.max_backlog is not None:
            resilience = ResiliencePolicy(deadline_seconds=None, breaker=None,
                                          max_backlog=policy.max_backlog)
        self.fleet = Fleet(
            env, policy.max_nodes, server_config,
            calibration=calibration, gpu_count=gpu_count,
            per_node_cap=policy.per_node_cap, metrics=metrics,
            on_complete=on_complete, resilience=resilience,
        )
        self.balancer = self.fleet.balancer
        self.active_count = policy.min_nodes
        for index in range(policy.min_nodes, policy.max_nodes):
            self.balancer.set_node_up(index, False)
        self._provisioning = 0
        self.events: List[ScalingEvent] = []
        self._last_action_time = -float("inf")
        env.spawn(self._controller())

    # -- public API --------------------------------------------------------------

    def submit(self, image, phase: Optional[str] = None) -> Event:
        return self.balancer.submit(image, phase=phase)

    @property
    def shed(self) -> int:
        """Requests rejected by backlog admission control."""
        return self.balancer.shed

    @property
    def total_outstanding(self) -> int:
        return sum(self.balancer.outstanding[: self.active_count])

    def register_metrics(self, registry) -> None:
        """Publish autoscaler state as registry views (observation only)."""
        registry.gauge_fn(
            "repro_autoscaler_active_nodes",
            "Nodes currently taking traffic",
            lambda: self.active_count,
        )
        registry.gauge_fn(
            "repro_autoscaler_provisioning_nodes",
            "Nodes booting toward the active set",
            lambda: self._provisioning,
        )
        registry.gauge_fn(
            "repro_autoscaler_backlog_depth",
            "Requests waiting in the autoscaler balancer queue",
            lambda: self.balancer.backlog_depth,
        )
        registry.gauge_fn(
            "repro_autoscaler_outstanding",
            "In-flight requests across the active set",
            lambda: self.total_outstanding,
        )
        registry.counter_fn(
            "repro_autoscaler_actions_total",
            "Scale-out/in actions taken by the controller",
            lambda: len(self.events),
        )
        registry.counter_fn(
            "repro_autoscaler_shed_total",
            "Requests rejected by backlog admission control",
            lambda: self.shed,
        )

    @property
    def load_factor(self) -> float:
        """Observed load per active node, relative to target.

        Includes the balancer backlog: requests held at the cap are the
        clearest over-capacity signal.
        """
        per_node = (self.total_outstanding + self.balancer.backlog_depth) / self.active_count
        return per_node / self.policy.target_outstanding_per_node

    # -- internals ----------------------------------------------------------------

    def _controller(self):
        policy = self.policy
        while True:
            yield self.env.timeout(policy.interval_seconds)
            if self.env.now - self._last_action_time < policy.cooldown_seconds:
                continue
            factor = self.load_factor
            if (
                factor > policy.scale_out_threshold
                and self.active_count + self._provisioning < policy.max_nodes
            ):
                self._last_action_time = self.env.now
                self._provisioning += 1
                self.env.spawn(self._provision())
            elif factor < policy.scale_in_threshold and self.active_count > policy.min_nodes:
                # Drain-free scale-in: stop routing to the last node; its
                # in-flight requests still finish.
                self._last_action_time = self.env.now
                self.active_count -= 1
                self.balancer.set_node_up(self.active_count, False)
                self.events.append(
                    ScalingEvent(self.env.now, "scale_in", self.active_count)
                )

    def _provision(self):
        yield self.env.timeout(self.policy.provision_delay_seconds)
        self._provisioning -= 1
        if self.active_count < self.policy.max_nodes:
            self.balancer.set_node_up(self.active_count, True)
            self.active_count += 1
            self.events.append(
                ScalingEvent(self.env.now, "scale_out", self.active_count)
            )
