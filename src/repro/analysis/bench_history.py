"""Bench-history comparison: fresh bench JSON vs a committed baseline.

CI runs the bench harness every build (``repro bench --smoke --out
BENCH_parallel.json`` / ``--cluster``) and compares the fresh numbers
against baselines committed under ``benchmarks/baselines/``.  A
throughput figure falling more than ``tolerance`` (default 20%) below
its baseline fails the build; improvements and wall-clock noise inside
the band pass.

Only *throughput-shaped* figures are compared (events/sec, requests/sec,
simulated img/s): they are the regression signal the paper's harness
cares about, and the tolerance absorbs runner-to-runner wall-clock
variance.  Figures are restricted to probes stable enough to gate on —
best-of-N micro-probes and multi-second sweeps; sub-second single-shot
wall clocks jitter far beyond any useful threshold and are excluded.
Deterministic fingerprint figures (simulated throughput) should
essentially never move — when they do, the same threshold catches what
is then a behavioural regression, not noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["BenchComparison", "compare_bench", "compare_bench_files"]


def _dig(data: Dict, path: str) -> Optional[float]:
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return float(node) if isinstance(node, (int, float)) else None


def _ratio(data: Dict, numerator: str, denominator: str) -> Optional[float]:
    top = _dig(data, numerator)
    bottom = _dig(data, denominator)
    if top is None or bottom is None or bottom <= 0:
        return None
    return top / bottom


#: (figure label, extractor) pairs per bench schema; an extractor
#: returning None (field absent in either file) skips the figure.
_FIGURES: Dict[str, List[Tuple[str, Callable[[Dict], Optional[float]]]]] = {
    "parallel": [
        ("engine timeout events/s",
         lambda d: _dig(d, "engine.timeout_events_per_sec")),
        ("engine store ops/s",
         lambda d: _dig(d, "engine.store_ops_per_sec")),
        ("engine store drain/s",
         lambda d: _dig(d, "engine.store_drain_per_sec")),
    ],
    "cluster": [
        ("scaling sim throughput (img/s)",
         lambda d: _dig(d, "scaling.fingerprint.throughput")),
        ("scaling requests/s (serial wall)",
         lambda d: _ratio(d, "scaling.requests",
                          "scaling.serial_wall_seconds")),
        ("day sim throughput (img/s)",
         lambda d: _dig(d, "day.fingerprint.throughput")),
    ],
}


def _schema_of(data: Dict) -> str:
    return "cluster" if "scaling" in data or "day" in data else "parallel"


@dataclass(frozen=True)
class BenchComparison:
    """One throughput figure, fresh vs baseline."""

    figure: str
    baseline: float
    fresh: float
    tolerance: float

    @property
    def change(self) -> float:
        """Relative change vs baseline (negative = slower)."""
        return (self.fresh - self.baseline) / self.baseline

    @property
    def regressed(self) -> bool:
        return self.change < -self.tolerance

    def row(self) -> List[str]:
        return [
            self.figure,
            f"{self.baseline:,.1f}",
            f"{self.fresh:,.1f}",
            f"{self.change:+.1%}",
            "REGRESSED" if self.regressed else "ok",
        ]


def compare_bench(
    fresh: Dict, baseline: Dict, tolerance: float = 0.20
) -> List[BenchComparison]:
    """Compare two bench result dicts; figures missing from either side
    are skipped (schemas are allowed to grow)."""
    if not 0 < tolerance < 1:
        raise ValueError(f"tolerance must be in (0, 1), got {tolerance}")
    schema = _schema_of(baseline)
    if _schema_of(fresh) != schema:
        raise ValueError(
            "bench schemas differ: fresh looks like "
            f"{_schema_of(fresh)!r}, baseline like {schema!r}"
        )
    out: List[BenchComparison] = []
    for figure, extract in _FIGURES[schema]:
        base_value = extract(baseline)
        fresh_value = extract(fresh)
        if base_value is None or fresh_value is None or base_value <= 0:
            continue
        out.append(BenchComparison(
            figure=figure, baseline=base_value, fresh=fresh_value,
            tolerance=tolerance,
        ))
    if not out:
        raise ValueError("no comparable throughput figures found")
    return out


def compare_bench_files(
    fresh_path: str, baseline_path: str, tolerance: float = 0.20
) -> List[BenchComparison]:
    """File-path convenience wrapper around :func:`compare_bench`."""
    with open(fresh_path, "r", encoding="utf-8") as handle:
        fresh = json.load(handle)
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    return compare_bench(fresh, baseline, tolerance=tolerance)
