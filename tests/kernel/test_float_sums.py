"""Float totals add left to right on every interpreter.

From CPython 3.12 the built-in ``sum()`` of floats uses compensated
summation, so a mean over the same latencies ends in other digits on
3.12+ than on 3.10 and 3.11, and every pinned digest over a mean would
depend on the interpreter.  Every float total under ``src/repro``
therefore goes through :func:`repro.sim.sums.float_sum`.  This scanner
fails on any built-in ``sum(`` outside :data:`INTEGER_SUMS`, the sums
whose terms are ints: int addition is exact on every interpreter.  Ruff
has no rule for this, so the scan runs wherever pytest runs.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from repro.sim.sums import float_sum

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The built-in sums allowed to stay, keyed by (file relative to
#: src/repro, enclosing function): one reason per call, in source order.
INTEGER_SUMS: Dict[Tuple[str, str], Tuple[str, ...]] = {
    ("apps/naive_loop.py", "run_naive_loop.loop"): (
        "Image.compressed_bytes is an int",
    ),
    ("core/metrics.py", "RunMetrics.cache_hit_count"): (
        "cache hits are counts",
    ),
    ("core/metrics.py", "MetricsCollector.finalize"): (
        "batch sizes are ints (the mean divides their exact total)",
        "eviction counts are ints",
    ),
    ("core/server.py", "InferenceServer._gpu_preprocess_pipeline"): (
        "Image.decoded_bytes and Image.compressed_bytes are ints",
    ),
    ("serving/autoscaler.py", "AutoscaledFleet.total_outstanding"): (
        "outstanding requests per node are counts",
    ),
    ("serving/fleet.py", "LoadBalancer.total_outstanding"): (
        "outstanding requests per node are counts",
    ),
    ("serving/fleet.py", "LoadBalancer.register_metrics"): (
        "breaker open transitions are counts",
    ),
    ("serving/fleet.py", "run_fleet_experiment"): (
        "breaker open transitions are counts",
    ),
    ("telemetry/slo.py", "SloTracker.burn_rate"): (
        "bad events are counted",
    ),
    ("telemetry/slo.py", "SloTracker.report"): (
        "bad events are counted",
    ),
}


def _builtin_sums(source: str) -> Dict[str, List[int]]:
    """Line numbers of every ``sum(...)`` call, by enclosing function."""
    found: Dict[str, List[int]] = defaultdict(list)

    def walk(node: ast.AST, scope: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "sum"):
                found[".".join(scope)].append(child.lineno)
            walk(child, scope)

    walk(ast.parse(source), ())
    return found


def _scan() -> Dict[Tuple[str, str], List[int]]:
    calls: Dict[Tuple[str, str], List[int]] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for scope, lines in _builtin_sums(path.read_text()).items():
            calls[(rel, scope)] = lines
    return calls


def test_scanner_names_the_enclosing_function():
    source = (
        "total = sum([1.0])\n"
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return lambda: sum(x for x in ())\n"
        "        return sum([0.5, 0.25]), g\n"
    )
    assert dict(_builtin_sums(source)) == {"": [1], "A.f.g": [5], "A.f": [6]}


def test_only_integer_sums_use_the_builtin():
    calls = _scan()
    offenders = [
        f"{rel}:{line} in {scope or '<module>'}"
        for (rel, scope), lines in sorted(calls.items())
        if len(lines) != len(INTEGER_SUMS.get((rel, scope), ()))
        for line in lines
    ]
    assert not offenders, (
        "float totals must use repro.sim.sums.float_sum (the built-in sum "
        "rounds differently from CPython 3.12); a sum of ints goes into "
        "INTEGER_SUMS with its reason:\n  " + "\n  ".join(offenders)
    )
    stale = sorted(set(INTEGER_SUMS) - set(calls))
    assert not stale, f"INTEGER_SUMS names sums that no longer exist: {stale}"


def test_float_sum_adds_left_to_right():
    # 3.12's compensated built-in gives 1.0 here; 3.10 and 3.11 give this.
    assert float_sum([0.1] * 10) == 0.9999999999999999
    assert float_sum(iter([1e16, 1.0, -1e16])) == 0.0
    assert float_sum([0.5, 2]) == 2.5
    assert float_sum([]) == 0 and isinstance(float_sum([]), int)
