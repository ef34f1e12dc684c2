"""Unit tests for the process-pool sweep executor."""

import pickle

import pytest

from repro.parallel import (
    ParallelConfig,
    SweepError,
    SweepReport,
    derive_seed,
    run_sweep,
)
from repro.parallel.executor import _pool_point


# Task functions must live at module level so they pickle by reference.
def square(point):
    return point * point


def fail_on_three(point):
    if point == 3:
        raise ValueError("boom")
    return point


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(7, 3) == derive_seed(7, 3)

    def test_distinct_keys_and_bases(self):
        seeds = {derive_seed(0, key) for key in range(100)}
        assert len(seeds) == 100
        assert derive_seed(0, "x") != derive_seed(1, "x")

    def test_position_independent(self):
        """A point's seed depends only on its key, never on sweep shape."""
        full = [derive_seed(5, k) for k in ("a", "b", "c")]
        sliced = [derive_seed(5, k) for k in ("c", "a")]
        assert sliced == [full[2], full[0]]


class TestParallelConfig:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(workers=-2)

    def test_resolved_workers_capped_by_points(self):
        assert ParallelConfig(workers=8).resolved_workers(3) == 3
        assert ParallelConfig(workers=2).resolved_workers(10) == 2
        assert ParallelConfig().resolved_workers(1) == 1


class TestRunSweepSerial:
    def test_ordered_values(self):
        report = run_sweep(square, [1, 2, 3, 4], ParallelConfig(serial=True))
        assert report.values == [1, 4, 9, 16]
        assert report.mode == "serial"
        assert report.workers == 1
        assert [r.index for r in report.results] == [0, 1, 2, 3]

    def test_empty_sweep(self):
        report = run_sweep(square, [], ParallelConfig(serial=True))
        assert report.values == []
        assert report.wall_seconds == 0.0

    def test_failure_names_the_point(self):
        with pytest.raises(SweepError) as excinfo:
            run_sweep(fail_on_three, [1, 2, 3], ParallelConfig(serial=True))
        assert excinfo.value.index == 2
        assert excinfo.value.point == 3

    def test_progress_callback(self):
        seen = []
        run_sweep(
            square,
            [5, 6],
            ParallelConfig(serial=True),
            on_progress=lambda result, total: seen.append((result.index, total)),
        )
        assert seen == [(0, 2), (1, 2)]

    def test_single_point_runs_serial_even_with_pool_config(self):
        report = run_sweep(square, [9], ParallelConfig(workers=4))
        assert report.mode == "serial"
        assert report.values == [81]


class TestRunSweepParallel:
    def test_pool_matches_serial_in_order(self):
        serial = run_sweep(square, list(range(6)), ParallelConfig(serial=True))
        pooled = run_sweep(square, list(range(6)), ParallelConfig(workers=2))
        assert pooled.mode == "parallel"
        assert pooled.values == serial.values

    def test_pool_failure_names_the_point(self):
        with pytest.raises(SweepError) as excinfo:
            run_sweep(fail_on_three, [1, 3, 5], ParallelConfig(workers=2))
        assert excinfo.value.index == 1
        assert excinfo.value.point == 3

    def test_verify_pass(self):
        report = run_sweep(
            square, [1, 2, 3], ParallelConfig(workers=2, verify=True)
        )
        assert report.verified is True


class TestSweepReport:
    def test_accounting(self):
        report = run_sweep(square, [1, 2], ParallelConfig(serial=True))
        assert isinstance(report, SweepReport)
        assert report.busy_seconds == sum(r.seconds for r in report.results)
        assert 0.0 <= report.parallel_efficiency
        data = report.to_dict()
        assert data["points"] == 2
        assert data["mode"] == "serial"
        assert "points in" in report.summary()

    def test_report_is_picklable(self):
        report = run_sweep(square, [1, 2], ParallelConfig(serial=True))
        clone = pickle.loads(pickle.dumps(report))
        assert clone.values == report.values


class TestImportHygieneGuard:
    def test_pool_point_rejects_heavy_imports(self, monkeypatch):
        import sys
        import types

        monkeypatch.setitem(sys.modules, "matplotlib", types.ModuleType("matplotlib"))
        with pytest.raises(ImportError, match="matplotlib"):
            _pool_point(square, 0, 2)
