"""Harness tests for the repository benchmark (two timed runs per workload).

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from workloads import (
    CASES, GOLDEN_DIGEST, GOLDEN_TRACE, PERF_DIR, ROOT, day_path, load_pins, synthesize_days,
)
from repro.workload import trace_digest

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perf", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def printed(stdout: str) -> dict:
    """``{(workload, metric): unit}`` from the metric lines."""
    lines = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] in CASES:
            lines[fields[0], fields[1]] = fields[3]
    return lines


def final(stdout: str) -> dict:
    result = json.loads(stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.fixture(scope="module")
def seed0():
    return bench("--runs", "2")


def test_every_end_to_end_metric_is_printed_with_its_unit(seed0):
    assert seed0.returncode == 0, seed0.stderr
    lines = printed(seed0.stdout)
    for name in CASES:
        for metric in BENCHMARK["end_to_end"]:
            assert lines[name, metric["name"]] == metric["unit"]
        assert lines[name, "failed_frac"] == "ratio"


def test_seed0_digests_match_the_pins(seed0):
    result = final(seed0.stdout)
    assert result["correct"] and result["failed"] == 0
    assert "(pinned), 0 failed" in seed0.stdout
    assert seed0.stdout.count("(pinned)") == len(CASES)


def test_a_corrupted_pin_counts_as_one_failed_run():
    pins = load_pins("fig11_faces")
    pins[1] = "0" * 64  # only timed run 1 uses input 1
    result = run.measure("fig11_faces", 0, runs=2, pins=pins)
    assert result["failed"] == 1
    assert result["metrics"]["failed_frac"] == 1 / result["attempted"]


def test_other_seeds_use_the_fallback_checks(tmp_path):
    report = tmp_path / "report.json"
    proc = bench("--runs", "2", "--seed", "1", "--json", str(report))
    assert proc.returncode == 0, proc.stderr
    assert final(proc.stdout)["failed"] == 0
    document = json.loads(report.read_text())
    assert document["seed"] == 1
    assert set(document["host"]) == {"python", "implementation", "platform", "cpu_count"}
    for name in CASES:
        workload = document["workloads"][name]
        assert workload["check"] == "fallback"
        assert len(workload["run_seconds"]) == 2
        assert workload["host_ref_s"]
        assert workload["metrics"]["sim_rps"]["unit"] == "req/s"


def test_trace_passes_repeat_their_counts_and_fractions_sum_to_one(tmp_path):
    passes = []
    for attempt in range(2):
        report = tmp_path / f"trace{attempt}.json"
        proc = bench("--runs", "2", "--trace", "--json", str(report))
        assert proc.returncode == 0, proc.stderr
        lines = printed(proc.stdout)
        metrics = final(proc.stdout)["metrics"]
        for name in CASES:
            for metric in BENCHMARK["per_layer"]:
                assert lines[name, metric["name"]] == metric["unit"]
                assert f"{name}.{metric['name']}" in metrics
        passes.append(json.loads(report.read_text())["workloads"])
    for name in CASES:
        first, second = (p[name]["metrics"] for p in passes)
        counts = [m for m in first if m.endswith(("calls_per_req", "events_per_req"))]
        assert counts and all(first[m] == second[m] for m in counts)
        fractions = sum(v["value"] for m, v in first.items() if m.endswith(".self_frac"))
        assert fractions == pytest.approx(1.0, abs=0.01)
        assert first["trace.overhead"]["value"] > 0


def test_recipe_copy_reproduces_the_golden_trace():
    synthesize_days(0)
    assert trace_digest(day_path(0)) == GOLDEN_DIGEST == trace_digest(GOLDEN_TRACE)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERF_DIR, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "fig5_closed", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
