"""Experiment runner: build platform + server + clients, run, collect.

Every experiment in the paper reduces to: construct a
:class:`~repro.hardware.platform.ServerNode`, deploy a server on it,
drive it closed-loop at some concurrency with some dataset, discard a
warm-up prefix, and measure a window.  The deployment is whatever
:attr:`ExperimentConfig.server` names: an
:class:`~repro.core.server.InferenceServer` for a
:class:`~repro.core.config.ServerConfig`, the two-stage face pipeline
for a :class:`~repro.apps.face_pipeline.FacePipelineConfig`, or video
classification for a
:class:`~repro.apps.video_classification.VideoServerConfig`.
:func:`run_experiment` does exactly that and returns a
:class:`RunResult` with throughput, latency statistics, per-span
breakdowns, and per-image energy.

The run scaffolding every experiment shares — environment/node/collector
construction, the warm-up/measure completion observer, the controller
process that snapshots energy and arms the measurement window, the
open-loop client, and the post-run utilization arithmetic — lives in
:class:`RunSession`; :func:`~repro.serving.fleet.run_fleet_experiment`
runs on it too.  A session is clock-agnostic: pass
``backend=AsyncioBackend(...)`` to any runner and the identical policy
stack executes against the wall clock (``repro.live`` uses this for
trace replay through the live stack).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

from ..core.config import ServerConfig
from ..core.metrics import MetricsCollector, RunMetrics
from ..core.server import InferenceServer
from ..hardware.calibration import DEFAULT_CALIBRATION, Calibration
from ..hardware.platform import ServerNode
from ..hardware.power import DeviceEnergy, EnergySnapshot
from ..kernel import ExecutionBackend, RandomStreams, VirtualTimeBackend, run_until
from ..sim.sums import float_sum
from ..telemetry import TelemetryConfig, TelemetrySession
from ..vision.datasets import Dataset, reference_dataset
from ..workload import Workload
from .client import ClosedLoopClient, WorkloadClient

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from ..apps.face_pipeline import FacePipelineConfig
    from ..apps.video_classification import VideoServerConfig

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "RunSession",
    "run_experiment",
    "run_face_pipeline",
    "run_open_loop",
]


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One serving experiment: platform, deployment, and load."""

    #: The deployment: single-model classification, the two-stage face
    #: pipeline, or video classification (closed-loop, no telemetry).
    server: Union[ServerConfig, FacePipelineConfig, VideoServerConfig] = field(
        default_factory=ServerConfig)
    #: Defaults to the medium reference image (video frames for the
    #: face pipeline, video clips for video classification).
    dataset: Optional[Dataset] = None
    #: Unified traffic spec (:class:`repro.workload.Workload`).  Its
    #: dataset takes precedence over ``dataset``; open-loop runners
    #: additionally draw arrival timing from it (closed-loop load is set
    #: by ``concurrency``, so only the popularity component applies).
    workload: Optional[Workload] = None
    concurrency: int = 64
    gpu_count: int = 1
    calibration: Calibration = DEFAULT_CALIBRATION
    seed: int = 0
    warmup_requests: int = 300
    measure_requests: int = 2000
    #: Hard wall on simulated seconds (guards mis-configured runs).
    max_sim_seconds: float = 600.0
    #: Client think-time jitter; breaks arrival synchronization so tail
    #: latencies are meaningful (real clients are never lock-stepped).
    think_jitter_seconds: float = 0.0
    #: Optional callback invoked with every completed request.
    on_complete: Optional[Callable] = None
    #: Observability: span tracing, metrics registry, SLO tracking.
    #: ``None`` (or ``enabled=False``) records nothing; either way the
    #: simulated results are identical.
    telemetry: Optional[TelemetryConfig] = None

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.gpu_count < 1:
            raise ValueError(f"gpu_count must be >= 1, got {self.gpu_count}")
        if self.warmup_requests < 0 or self.measure_requests < 1:
            raise ValueError("warmup_requests must be >= 0 and measure_requests >= 1")
        if self.max_sim_seconds <= 0:
            raise ValueError("max_sim_seconds must be positive")
        if self.think_jitter_seconds < 0:
            raise ValueError("think_jitter_seconds must be >= 0")
        if self.workload is not None:
            self.workload.validate()

    def validate(self) -> "ExperimentConfig":
        """Re-run field validation (useful after deserialization)."""
        self.__post_init__()
        return self

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class RunResult:
    """Everything measured in one experiment."""

    config: ExperimentConfig
    metrics: RunMetrics
    energy: Dict[str, DeviceEnergy]
    cpu_utilization: float
    gpu_utilization: float  # mean across GPUs
    #: The run's :class:`~repro.telemetry.session.TelemetrySession`
    #: (registry + tracer + SLO state), or ``None`` when telemetry was
    #: disabled.  Excluded from equality: two runs are the same run if
    #: they measured the same things.
    telemetry: Optional[TelemetrySession] = field(default=None, compare=False)

    def to_dict(self) -> Dict[str, object]:
        """Flat dict of the run's measurements (see
        :func:`repro.analysis.export.result_to_dict`)."""
        from ..analysis.export import result_to_dict

        return result_to_dict(self)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"throughput={self.throughput:.1f}/s "
            f"mean={self.mean_latency * 1e3:.1f}ms p99={self.p99_latency * 1e3:.1f}ms "
            f"cpu={self.cpu_utilization:.0%} gpu={self.gpu_utilization:.0%}"
        )

    @property
    def throughput(self) -> float:
        return self.metrics.throughput

    @property
    def mean_latency(self) -> float:
        return self.metrics.latency.mean

    @property
    def p99_latency(self) -> float:
        return self.metrics.latency.p99

    @property
    def cpu_joules_per_image(self) -> float:
        return self.energy["cpu"].total_joules / self.metrics.completed

    @property
    def gpu_joules_per_image(self) -> float:
        total = float_sum(e.total_joules for name, e in self.energy.items() if name != "cpu")
        return total / self.metrics.completed

    @property
    def joules_per_image(self) -> float:
        return self.cpu_joules_per_image + self.gpu_joules_per_image


def _open_session(
    telemetry: Optional[TelemetryConfig], env: ExecutionBackend
) -> Optional[TelemetrySession]:
    """Create the run's telemetry session, or ``None`` when disabled."""
    if telemetry is None or not telemetry.enabled:
        return None
    return TelemetrySession(telemetry, env=env)


class RunSession:
    """Shared scaffolding for one measured serving run.

    Owns the pieces every runner would otherwise copy: the execution
    backend, RNG streams, the metrics collector, the optional telemetry
    session, the warm-up/measurement completion events, the controller
    process (collector arm/disarm + client stop), the open-loop client,
    and the post-run accounting.  Construction order matches the
    historical runners exactly, so DES runs are bit-identical.

    Given a ``calibration``, the session also deploys the run's one
    :class:`ServerNode` and meters its energy and utilization over the
    measurement window.  A fleet run passes none: it builds its own
    nodes behind a balancer and meters no energy.

    The session never inspects the backend's clock: handed a
    :class:`~repro.kernel.AsyncioBackend` it drives the same stack on
    the wall clock (``run_until`` picks the right dispatch loop).
    """

    def __init__(
        self,
        *,
        seed: int,
        calibration: Optional[Calibration] = None,
        gpu_count: int = 1,
        telemetry: Optional[TelemetryConfig] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.env: ExecutionBackend = (
            backend if backend is not None else VirtualTimeBackend()
        )
        self.streams = RandomStreams(seed)
        self.node: Optional[ServerNode] = (
            ServerNode(self.env, calibration, gpu_count=gpu_count)
            if calibration is not None else None
        )
        self.collector = MetricsCollector()
        self.session = _open_session(telemetry, self.env)
        self.warmup_done = self.env.event()
        self.measure_done = self.env.event()
        self.completed = 0
        self.client = None
        self._snapshots: Dict[str, EnergySnapshot] = {}

    # -- completion stream -------------------------------------------------

    def completion_observer(
        self,
        warmup_target: int,
        total_target: int,
        after: Optional[Callable] = None,
    ) -> Callable:
        """The ``on_complete`` callback shared by all runners.

        Counts completions, fires the warm-up/measurement events at
        their targets, feeds telemetry, then invokes ``after`` (the
        runner-specific tail: user callbacks, exhaustion checks).
        """

        def on_complete(request) -> None:
            self.completed += 1
            if self.completed == warmup_target and not self.warmup_done.triggered:
                self.warmup_done.succeed()
            elif self.completed == total_target and not self.measure_done.triggered:
                self.measure_done.succeed()
            if self.session is not None:
                self.session.observe_completion(request, self.env.now)
            if after is not None:
                after(request)

        return on_complete

    def arm_immediately(self) -> None:
        """Open the measurement window at t=0 (no warm-up phase)."""
        if not self.warmup_done.triggered:
            self.warmup_done.succeed()

    def end_now(self) -> None:
        """Close warm-up and measurement now (a bounded workload ran dry)."""
        self.arm_immediately()
        if not self.measure_done.triggered:
            self.measure_done.succeed()

    def open_loop_client(self, target, workload: Workload, *, prefix: str,
                         default_dataset: Dataset, on_complete=None,
                         on_exhausted=None) -> WorkloadClient:
        """The :class:`WorkloadClient` driving ``target`` (a server or a
        fleet) with ``workload``'s arrivals, drawn from streams named
        after ``prefix``; telemetry gets the offered rate as a gauge."""
        source = workload.source(self.streams, prefix=prefix,
                                 default_dataset=default_dataset)
        if self.session is not None and source.model is not None:
            model = source.model
            env = self.env
            self.session.registry.gauge_fn(
                "repro_workload_offered_rate",
                "Instantaneous workload arrival rate (requests/second)",
                lambda: model.rate_at(env.now),
            )
        return WorkloadClient(self.env, target, source, on_complete=on_complete,
                              on_exhausted=on_exhausted)

    # -- the measured run --------------------------------------------------

    def _controller(self, max_sim_seconds: float):
        env, node = self.env, self.node
        yield self.warmup_done | env.timeout(max_sim_seconds)
        if node is not None:
            self._snapshots["start"] = node.energy.snapshot(env.now)
        self.collector.arm(env.now)
        yield self.measure_done | env.timeout(max_sim_seconds)
        self.collector.disarm(env.now)
        if node is not None:
            self._snapshots["end"] = node.energy.snapshot(env.now)
        if self.client is not None:
            self.client.stop()

    def execute(self, client, max_sim_seconds: float) -> None:
        """Run warm-up + measurement to completion under either clock."""
        self.client = client
        done = self.env.process(self._controller(max_sim_seconds))
        run_until(self.env, done)

    # -- post-run accounting -----------------------------------------------

    def finish(self, cache=None) -> RunMetrics:
        """Window metrics, with run-global cache counters in extras;
        closes the telemetry session."""
        metrics = self.collector.finalize()
        if cache is not None:
            # Run-global cache counters ride along in extras (window-gated
            # per-tier hit counts live in metrics.cache_hits).
            metrics = replace(metrics, extras={**metrics.extras, **cache.stats_dict()})
        if self.session is not None:
            self.session.finalize(self.env.now)
        return metrics

    def utilization(self, window: float) -> tuple:
        """(cpu_util, mean gpu_util) over the measurement window."""
        start = self._snapshots["start"]
        end = self._snapshots["end"]
        cpu_busy = end.busy["cpu"] - start.busy["cpu"]
        gpu_busy = [end.busy[gpu.name] - start.busy[gpu.name] for gpu in self.node.gpus]
        cpu_util = (
            min(1.0, cpu_busy / (self.node.cpu.core_count * window)) if window > 0 else 0.0
        )
        gpu_util = (
            float_sum(min(1.0, b / window) for b in gpu_busy) / len(gpu_busy)
            if window > 0
            else 0.0
        )
        return cpu_util, gpu_util

    def result(self, config: ExperimentConfig, *, cache=None) -> RunResult:
        """Assemble the single-node :class:`RunResult` and finalize
        telemetry."""
        metrics = self.finish(cache)
        cpu_util, gpu_util = self.utilization(metrics.window_seconds)
        return RunResult(
            config=config,
            metrics=metrics,
            energy=self.node.energy.energy_between(
                self._snapshots["start"], self._snapshots["end"]),
            cpu_utilization=cpu_util,
            gpu_utilization=gpu_util,
            telemetry=self.session,
        )


def _deploy(run: RunSession, config: ExperimentConfig, on_complete: Callable):
    """Deploy the server ``config.server`` names on the run's node and
    attach telemetry; return it with the dataset its clients draw from
    (``config.dataset``, or the deployment's default)."""
    spec = config.server
    if isinstance(spec, ServerConfig):
        server = InferenceServer(
            run.env, run.node, spec, metrics=run.collector, on_complete=on_complete)
        default = reference_dataset("medium")
    else:
        # Imported here: repro.apps imports repro.serving.
        from ..apps import FacePipeline, FacePipelineConfig, VideoClassificationServer
        from ..vision import VideoClipDataset, VideoFrameDataset

        if isinstance(spec, FacePipelineConfig):
            server = FacePipeline(run.env, run.node, spec, run.streams,
                                  metrics=run.collector, on_complete=on_complete)
            default = VideoFrameDataset()
        else:
            server = VideoClassificationServer(
                run.env, run.node, spec, metrics=run.collector, on_complete=on_complete)
            default = VideoClipDataset()
    if run.session is not None:
        run.session.attach_server(server)
        run.session.start()
    return server, config.dataset if config.dataset is not None else default


def run_experiment(
    config: ExperimentConfig,
    *,
    workload: Optional[Workload] = None,
    backend: Optional[ExecutionBackend] = None,
) -> RunResult:
    """Simulate one experiment and return its measurements.

    ``workload`` (equivalently ``config.workload``) supplies the request
    mix — a closed-loop run draws its images/popularity from it, while
    load intensity stays set by ``config.concurrency``.  ``backend``
    selects the execution clock (default: deterministic virtual time).
    """
    if workload is not None:
        config = config.with_overrides(workload=workload)
    run = RunSession(
        seed=config.seed,
        calibration=config.calibration,
        gpu_count=config.gpu_count,
        telemetry=config.telemetry,
        backend=backend,
    )
    on_complete = run.completion_observer(
        config.warmup_requests,
        config.warmup_requests + config.measure_requests,
        after=config.on_complete,
    )
    server, dataset = _deploy(run, config, on_complete)
    if config.workload is not None:
        dataset = config.workload.resolved_dataset(dataset)
    client = ClosedLoopClient(
        run.env,
        server,
        dataset,
        concurrency=config.concurrency,
        streams=run.streams,
        think_jitter_seconds=config.think_jitter_seconds,
    )

    run.execute(client, config.max_sim_seconds)
    return run.result(config, cache=getattr(server, "cache", None))


#: Client think-time jitter of the face pipeline's closed-loop runs.
FACE_THINK_JITTER_SECONDS = 2e-3


def run_face_pipeline(
    pipeline_config,
    concurrency: int = 96,
    gpu_count: int = 1,
    calibration: Calibration = DEFAULT_CALIBRATION,
    seed: int = 0,
    warmup_requests: int = 150,
    measure_requests: int = 1200,
    max_sim_seconds: float = 600.0,
    think_jitter_seconds: float = FACE_THINK_JITTER_SECONDS,
    telemetry: Optional[TelemetryConfig] = None,
    *,
    workload: Optional[Workload] = None,
    backend: Optional[ExecutionBackend] = None,
) -> RunResult:
    """Simulate the multi-DNN face pipeline (paper Sec. 4.7 / Fig. 11):
    :func:`run_experiment` with ``pipeline_config`` (a
    :class:`~repro.apps.face_pipeline.FacePipelineConfig`) as the
    deployment.

    Frames come from ``workload`` (its dataset component; closed-loop
    load is set by ``concurrency``), or video frames without one.
    """
    config = ExperimentConfig(
        server=pipeline_config,
        workload=workload,
        concurrency=concurrency,
        gpu_count=gpu_count,
        calibration=calibration,
        seed=seed,
        warmup_requests=warmup_requests,
        measure_requests=measure_requests,
        max_sim_seconds=max_sim_seconds,
        think_jitter_seconds=think_jitter_seconds,
        telemetry=telemetry,
    )
    return run_experiment(config, backend=backend)


def run_open_loop(
    config: ExperimentConfig,
    *,
    workload: Optional[Workload] = None,
    backend: Optional[ExecutionBackend] = None,
) -> RunResult:
    """Open-loop variant of :func:`run_experiment`.

    Arrival timing comes from ``workload`` (or ``config.workload``):
    constant Poisson, diurnal curves, flash crowds, per-user sessions,
    or trace replay.

    Under open-loop load at a rate below capacity, a *fixed-batch*
    server exhibits long batch-fill waits that dominate tail latency —
    the regime in which the paper observes dynamic batching improving
    p99 from 55 ms to 38 ms (Sec. 2.3) at a small throughput cost.

    ``backend=AsyncioBackend(...)`` replays the same workload through
    the identical stack on the wall clock (see ``repro.live.replay``).
    """
    resolved = workload if workload is not None else config.workload
    if resolved is None:
        raise ValueError("an open-loop run needs workload= (or config.workload)")
    resolved.validate()

    run = RunSession(
        seed=config.seed,
        calibration=config.calibration,
        gpu_count=config.gpu_count,
        telemetry=config.telemetry,
        backend=backend,
    )

    if config.warmup_requests == 0:
        run.arm_immediately()  # measurement window arms at t=0

    def finish_if_exhausted(_request=None):
        # A bounded workload (duration or trace end) may run dry before
        # the completion targets are hit.
        if client.exhausted and run.completed >= client.issued:
            run.end_now()

    on_complete = run.completion_observer(
        config.warmup_requests,
        config.warmup_requests + config.measure_requests,
        after=finish_if_exhausted,
    )
    server, dataset = _deploy(run, config, on_complete)
    client = run.open_loop_client(
        server, resolved, prefix="client", default_dataset=dataset,
        on_exhausted=finish_if_exhausted,
    )

    run.execute(client, config.max_sim_seconds)
    return run.result(config, cache=getattr(server, "cache", None))
