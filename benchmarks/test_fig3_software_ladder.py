"""Fig. 3 — throughput across software configurations (ViT-base).

Paper (Sec. 2.3): a naive PyTorch loop reaches ~431 img/s; DALI CPU
preprocessing ~446; DALI GPU preprocessing ~842; Triton with the ONNX
runtime improves further; enabling dynamic batching trades a little
throughput for much better tail latency (55 ms -> 38 ms p99); a quick
server-parameter search adds ~300 img/s; TensorRT pushes past
1600 img/s.

We regenerate the same ladder on the simulated platform and check the
*shape*: each optimization's direction and rough magnitude.
"""

import pytest

from repro.analysis import ClaimSet, format_rate, format_table
from repro.apps import NaiveLoopConfig, run_naive_loop
from repro.core import ServerConfig
from repro.core.tuner import tune_server
from repro.serving import ExperimentConfig, run_experiment, run_open_loop
from repro.vision import reference_dataset
from repro.workload import Workload

DATASET = reference_dataset("medium")
LADDER_CONCURRENCY = 256


def _serve(server: ServerConfig, concurrency: int = LADDER_CONCURRENCY, seed: int = 0):
    return run_experiment(
        ExperimentConfig(
            server=server,
            dataset=DATASET,
            concurrency=concurrency,
            warmup_requests=400,
            measure_requests=2000,
            seed=seed,
            think_jitter_seconds=1e-3,
        )
    )


def run_ladder():
    rows = {}

    # Rungs 1-3: no serving software, synchronous loop.
    for name, preprocess in (
        ("pytorch loop", "python"),
        ("+ DALI CPU decode", "dali-cpu"),
        ("+ DALI GPU preprocessing", "dali-gpu"),
    ):
        result = run_naive_loop(
            NaiveLoopConfig(runtime="pytorch", preprocess=preprocess, batches=40), DATASET
        )
        rows[name] = {"throughput": result.throughput, "p99_ms": None}

    # Rung 4: Triton-like server, ONNX runtime, fixed batch.  Peak
    # throughput is measured closed-loop; the tail latency the paper
    # quotes (55 ms) is measured under open-loop load below capacity,
    # where fixed batches accrue long batch-fill waits.
    onnx_fixed = ServerConfig(
        runtime="onnxruntime",
        preprocess_device="gpu",
        preprocess_batch_size=64,
        max_queue_delay_seconds=None,
        preprocess_workers=8,
        inference_instances=1,
    )
    result = _serve(onnx_fixed, concurrency=96)
    open_loop = run_open_loop(
        ExperimentConfig(
            server=onnx_fixed.with_overrides(preprocess_queue_delay_seconds=5e-3),
            dataset=DATASET,
            warmup_requests=200,
            measure_requests=1200,
            max_sim_seconds=30,
        ),
        workload=Workload.constant(600),
    )
    rows["TrIS + ONNX (fixed batch)"] = {
        "throughput": result.throughput,
        "p99_ms": open_loop.p99_latency * 1e3,
    }

    # Rung 5: dynamic batching — slightly lower peak throughput, far
    # better tail latency (paper: 55 ms -> 38 ms p99).
    onnx_dynamic = onnx_fixed.with_overrides(max_queue_delay_seconds=1.0e-3)
    result = _serve(onnx_dynamic, concurrency=96)
    open_loop = run_open_loop(
        ExperimentConfig(
            server=onnx_dynamic.with_overrides(preprocess_queue_delay_seconds=5e-3),
            dataset=DATASET,
            warmup_requests=200,
            measure_requests=1200,
            max_sim_seconds=30,
        ),
        workload=Workload.constant(600),
    )
    rows["+ dynamic batching"] = {
        "throughput": result.throughput,
        "p99_ms": open_loop.p99_latency * 1e3,
    }

    # Rung 6: quick server-parameter search (paper: ~ +300 img/s).
    tuned = tune_server(
        onnx_dynamic,
        dataset=DATASET,
        search_space={
            "preprocess_workers": (8, 16, 24),
            "inference_instances": (1, 2),
            "max_batch_size": (64, 128),
            "concurrency": (256, 512),
        },
        baseline_concurrency=LADDER_CONCURRENCY,
        measure_requests=1200,
        warmup_requests=300,
    )
    rows["+ tuned server settings"] = {
        "throughput": tuned.best.throughput,
        "p99_ms": tuned.best.p99_latency * 1e3,
    }

    # Rung 7: TensorRT with the tuned settings.
    trt = tuned.best.server.with_overrides(runtime="tensorrt")
    result = _serve(trt, concurrency=tuned.best.concurrency)
    rows["+ TensorRT"] = {
        "throughput": result.throughput,
        "p99_ms": result.p99_latency * 1e3,
    }

    return rows


@pytest.mark.figure("fig3")
def test_fig3_software_ladder(run_once):
    rows = run_once(run_ladder)

    table = format_table(
        ["configuration", "img/s", "p99"],
        [
            [name, format_rate(row["throughput"]),
             "-" if row["p99_ms"] is None else f"{row['p99_ms']:.0f} ms"]
            for name, row in rows.items()
        ],
        title="Fig. 3 — ViT-base throughput across software configurations",
    )
    print("\n" + table)

    ladder = [row["throughput"] for row in rows.values()]
    names = list(rows)

    claims = ClaimSet("Fig. 3")
    claims.check("PyTorch loop img/s", 431, ladder[0], rel_tolerance=0.6)
    claims.check("DALI CPU gain over loop", 446 / 431, ladder[1] / ladder[0], rel_tolerance=0.15)
    claims.check("DALI GPU preprocessing img/s", 842, ladder[2], rel_tolerance=0.5)
    claims.check("TrIS+TensorRT img/s", 1600, ladder[6], rel_tolerance=0.35)
    claims.check(
        "overall ladder speedup (paper: >=3.7x, quoted up to 8x)",
        3.7,
        ladder[6] / ladder[0],
        rel_tolerance=1.5,
    )
    print(claims.render())

    # Directional shape of the ladder.
    assert ladder[1] > ladder[0], "DALI CPU must beat the python loop"
    assert ladder[2] > 1.5 * ladder[0], "GPU preprocessing is a large jump"
    assert ladder[3] > ladder[2], "serving software beats the naive loop"
    assert ladder[5] >= ladder[4], "tuning never hurts"
    assert ladder[6] > ladder[5], "TensorRT is the fastest rung"
    assert ladder[6] == max(ladder)

    # Dynamic batching: small throughput cost, better tail latency
    # (paper: 55 ms -> 38 ms p99).
    fixed = rows["TrIS + ONNX (fixed batch)"]
    dynamic = rows["+ dynamic batching"]
    assert dynamic["throughput"] > 0.8 * fixed["throughput"]
    assert dynamic["throughput"] < fixed["throughput"], "dynamic trades a little peak throughput"
    assert dynamic["p99_ms"] < fixed["p99_ms"], "dynamic batching improves p99"
    claims.check(
        "dynamic batching p99 improvement factor",
        55 / 38,
        fixed["p99_ms"] / dynamic["p99_ms"],
        rel_tolerance=0.7,
    )

    assert claims.all_within_tolerance, "\n" + claims.render()
