"""The four benchmark workloads, their inputs, and their output digests.

Each workload is a *ladder* of points.  Run ``i`` of a child is input
``slot = i % PIN_RUNS``: point ``ladder[slot % len(ladder)]`` with run
seed ``1000 * S + slot // len(ladder)``; the two trace workloads also
replay their own synthesised day, trace seed ``7 + PIN_RUNS * S + slot``.
The first ``PIN_RUNS`` runs are therefore distinct inputs (pinned for
``S = 0`` in ``expected/``) and longer timed phases repeat them.  One
day varies a lot from seed to seed (940 to 1640 requests), so a timed
phase replays many days rather than one.  The program is driven only
through its public runners.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.apps import FacePipelineConfig
from repro.cluster import ClusterConfig, run_cluster_experiment
from repro.core import ServerConfig
from repro.kernel import AsyncioBackend
from repro.serving import ExperimentConfig, run_experiment, run_face_pipeline, run_open_loop
from repro.telemetry import SloConfig, TelemetryConfig
from repro.vision import ImageNetLikeDataset, ZipfDataset, reference_dataset
from repro.workload import MarkovSessionModel, Workload, synthesize_trace, trace_digest

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
OUT_DIR = os.path.join(PERF_DIR, "out")
EXPECTED_DIR = os.path.join(PERF_DIR, "expected")

#: Distinct inputs per workload; run ``i`` reuses run ``i % PIN_RUNS``.
PIN_RUNS = 128

GOLDEN_TRACE = os.path.join(ROOT, "tests", "workload", "golden", "day.jsonl.gz")
#: Must equal ``GOLDEN_DIGEST`` in ``tests/workload/test_golden_trace.py``.
GOLDEN_DIGEST = "7b6a9790b7b1ba5eefaf34db385ea32424160fe2b00321b2d54069b7e7c555ef"
GOLDEN_SEED = 7

#: First 12 simulated hours of the day: the overnight low and the
#: morning ramp, before the noon flash crowd.
REPLAY_SECONDS = 43_200.0

RESNET = dict(model="resnet-50", preprocess_batch_size=64)


def golden_recipe() -> Workload:
    """Copy of the recipe behind ``tests/workload/golden/day.jsonl.gz``.

    Kept here so other seeds can be synthesised; :func:`synthesize_days`
    checks on every ``S = 0`` run that the copy has not drifted.
    """
    return Workload.flash_crowd(
        0.001,
        bursts=[(43_200.0, 3_600.0, 8.0)],
        ramp_seconds=600.0,
        swing=0.6,
        sessions=MarkovSessionModel(),
        dataset=ZipfDataset(ImageNetLikeDataset(), catalog_size=16, skew=1.0),
        duration_seconds=86_400.0,
        name="golden-day",
    )


def day_path(slot: int) -> str:
    """Where the day replayed by input ``slot`` is written."""
    return os.path.join(OUT_DIR, f"day-{slot}.jsonl.gz")


def synthesize_days(seed: int) -> None:
    """Write the ``PIN_RUNS`` days of seed ``seed`` (see the module doc).

    For ``seed == 0`` input 0 is trace seed 7, which must reproduce the
    checked-in golden trace byte for byte, else :class:`RuntimeError`.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    for slot in range(PIN_RUNS):
        path = day_path(slot)
        partial = os.path.join(OUT_DIR, f"day-{slot}.{os.getpid()}.partial.jsonl.gz")
        synthesize_trace(golden_recipe(), partial, seed=GOLDEN_SEED + PIN_RUNS * seed + slot)
        os.replace(partial, path)
    if seed == 0:
        if trace_digest(day_path(0)) != GOLDEN_DIGEST:
            raise RuntimeError("golden-day recipe no longer reproduces the pinned digest")
        with open(day_path(0), "rb") as fresh, open(GOLDEN_TRACE, "rb") as golden:
            if fresh.read() != golden.read():
                raise RuntimeError(f"{day_path(0)} differs from {GOLDEN_TRACE}")


# -- the four workloads -------------------------------------------------------


def _fig5(point, seed: int, trace: str, virtual: bool) -> Callable[[], Any]:
    device, concurrency = point
    config = ExperimentConfig(
        server=ServerConfig(preprocess_device=device, **RESNET),
        dataset=reference_dataset("medium"),
        concurrency=concurrency,
        seed=seed,
        warmup_requests=300,
        measure_requests=1000,
    )
    return lambda: run_experiment(config)


def _faces(point, seed: int, trace: str, virtual: bool) -> Callable[[], Any]:
    pipeline = FacePipelineConfig(broker=point, faces_per_frame=5)
    return lambda: run_face_pipeline(
        pipeline, concurrency=96, seed=seed, warmup_requests=100, measure_requests=600)


TEN_K = ClusterConfig(
    cells=2500, nodes_per_cell=4,
    fluid=True, fluid_hot_threshold=8, fluid_hot_window_seconds=1.0,
)


def _cluster(point, seed: int, trace: str, virtual: bool) -> Callable[[], Any]:
    server = ServerConfig(**RESNET)
    workload = Workload.replay(trace)
    return lambda: run_cluster_experiment(server, TEN_K, workload, seed=seed)


REPLAY_TELEMETRY = TelemetryConfig(
    enabled=True,
    trace=True,
    trace_limit=100_000,  # every request of the half day is traced
    slo=SloConfig(latency_objective_seconds=0.05, target=0.99),
    scrape_interval_seconds=60.0,
)


def _replay(point, seed: int, trace: str, virtual: bool) -> Callable[[], Any]:
    config = ExperimentConfig(
        server=ServerConfig(preprocess_device="gpu", **RESNET),
        dataset=reference_dataset("medium"),
        seed=seed,
        warmup_requests=0,
        measure_requests=1_000_000,
        max_sim_seconds=REPLAY_SECONDS,
        telemetry=REPLAY_TELEMETRY,
    )
    workload = Workload.replay(trace)
    if virtual:
        return lambda: run_open_loop(config, workload=workload)
    backend = AsyncioBackend(fast_forward=True)
    return lambda: run_open_loop(config, workload=workload, backend=backend)


def _closed_loop_requests(result) -> int:
    """Completions including warm-up (the warm-up prefix is simulated too)."""
    return result.config.warmup_requests + result.metrics.completed


def _run_outputs(result) -> Dict[str, Any]:
    return result.to_dict()


def _cluster_outputs(result) -> Dict[str, Any]:
    out = result.to_dict()
    del out["wall_seconds"], out["busy_seconds"]
    return out


def _replay_outputs(result) -> Dict[str, Any]:
    return {**result.to_dict(), "scraped": result.telemetry.store.to_jsonl()}


@dataclass(frozen=True)
class Case:
    """One workload: its ladder of points and how to run and check them."""

    name: str
    ladder: Tuple[Any, ...]
    #: ``(point, run seed, day path, virtual) -> call``, built outside timing.
    prepare: Callable[..., Callable[[], Any]]
    #: Simulated requests (frames) one run completed.
    requests: Callable[[Any], int]
    #: Simulated outputs the digest covers (no host timings).
    outputs: Callable[[Any], Dict[str, Any]]
    #: Replays the synthesised days (see :func:`synthesize_days`).
    uses_trace: bool = False

    def call(self, seed: int, run: int, virtual: bool = False) -> Tuple[int, Callable[[], Any]]:
        """``(slot, call)`` for run number ``run`` of seed ``seed``.

        ``virtual`` keeps every run on the virtual clock (only
        ``replay_ff`` runs elsewhere by default).
        """
        slot = run % PIN_RUNS
        size = len(self.ladder)
        point, run_seed = self.ladder[slot % size], 1000 * seed + slot // size
        return slot, self.prepare(point, run_seed, day_path(slot), virtual)

    def digest(self, result) -> str:
        """SHA-256 of the run's simulated outputs; floats by ``repr``."""
        text = json.dumps(self.outputs(result), sort_keys=True, default=repr)
        return hashlib.sha256(text.encode()).hexdigest()


CASES: Dict[str, Case] = {
    case.name: case
    for case in (
        Case(
            "fig5_closed",
            tuple((device, concurrency)
                  for device in ("cpu", "gpu") for concurrency in (16, 64, 256, 1024)),
            _fig5, _closed_loop_requests, _run_outputs,
        ),
        Case("fig11_faces", ("kafka", "redis"), _faces, _closed_loop_requests, _run_outputs),
        Case("cluster_day", (None,), _cluster, lambda r: r.completed, _cluster_outputs,
             uses_trace=True),
        Case("replay_ff", (None,), _replay, lambda r: r.metrics.completed, _replay_outputs,
             uses_trace=True),
    )
}


def expected_path(name: str) -> str:
    return os.path.join(EXPECTED_DIR, f"{name}.json")


def load_pins(name: str) -> list:
    """Pinned ``S = 0`` digests of inputs ``0 .. PIN_RUNS - 1``."""
    with open(expected_path(name)) as handle:
        return json.load(handle)["digests"]
