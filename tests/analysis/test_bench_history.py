"""Bench-history gate tests: figure extraction, thresholds, CLI wiring."""

import json

import pytest

from repro.analysis.bench_history import compare_bench, compare_bench_files
from repro.cli import main

PARALLEL = {
    "engine": {
        "timeout_events_per_sec": 1000.0,
        "store_ops_per_sec": 500.0,
        "store_drain_per_sec": 800.0,
    },
    "sweep": {"points": 12, "serial_wall_seconds": 6.0},
}

CLUSTER = {
    "scaling": {
        "fingerprint": {"throughput": 400.0},
        "requests": 12000,
        "serial_wall_seconds": 4.0,
    },
    "day": {"fingerprint": {"throughput": 0.02},
            "issued": 1639, "wall_seconds": 0.15},
}


def test_within_tolerance_passes():
    fresh = json.loads(json.dumps(PARALLEL))
    fresh["engine"]["timeout_events_per_sec"] = 850.0  # -15%
    comparisons = compare_bench(fresh, PARALLEL)
    assert not any(c.regressed for c in comparisons)


def test_regression_beyond_tolerance_flags():
    fresh = json.loads(json.dumps(PARALLEL))
    fresh["engine"]["store_ops_per_sec"] = 350.0  # -30%
    comparisons = compare_bench(fresh, PARALLEL)
    flagged = [c for c in comparisons if c.regressed]
    assert [c.figure for c in flagged] == ["engine store ops/s"]
    assert flagged[0].change == pytest.approx(-0.30)


def test_improvement_never_flags():
    fresh = json.loads(json.dumps(CLUSTER))
    fresh["scaling"]["serial_wall_seconds"] = 1.0  # 4x faster
    assert not any(c.regressed for c in compare_bench(fresh, CLUSTER))


def test_sim_fingerprint_shift_is_caught():
    fresh = json.loads(json.dumps(CLUSTER))
    fresh["scaling"]["fingerprint"]["throughput"] = 300.0  # -25%
    flagged = [c for c in compare_bench(fresh, CLUSTER) if c.regressed]
    assert [c.figure for c in flagged] == ["scaling sim throughput (img/s)"]


def test_missing_figures_are_skipped_not_fatal():
    sparse = {"engine": {"timeout_events_per_sec": 1000.0}}
    comparisons = compare_bench(sparse, sparse)
    assert [c.figure for c in comparisons] == ["engine timeout events/s"]


def test_mismatched_schemas_and_empty_reject():
    with pytest.raises(ValueError, match="schemas differ"):
        compare_bench(PARALLEL, CLUSTER)
    with pytest.raises(ValueError, match="no comparable"):
        compare_bench({"engine": {}}, {"engine": {}})
    with pytest.raises(ValueError, match="tolerance"):
        compare_bench(PARALLEL, PARALLEL, tolerance=1.5)


def test_file_round_trip(tmp_path):
    fresh = tmp_path / "fresh.json"
    baseline = tmp_path / "baseline.json"
    fresh.write_text(json.dumps(PARALLEL))
    baseline.write_text(json.dumps(PARALLEL))
    comparisons = compare_bench_files(str(fresh), str(baseline))
    assert all(c.change == 0.0 for c in comparisons)


def test_cli_baseline_requires_out(capsys):
    assert main(["bench", "--smoke", "--baseline", "nope.json"]) == 2
    assert "--out" in capsys.readouterr().err
