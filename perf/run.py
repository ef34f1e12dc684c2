"""Repository benchmark: host cost of four paper runs, checked against pins.

Run from the repository root::

    python perf/run.py [--workload NAME ...] [--seed S] [--seconds T]
                       [--trace [0|1]] [--json OUT]

Each workload runs in fresh child interpreters, one at a time (see
``child.py``): ``SETUP_CHILDREN - 1`` that only set up, then one that
sets up and is timed.  Every metric is printed as
``<workload> <metric> <value> <unit>``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 only if every run's simulated output digest checked out.
See ``README.md`` for the workloads, metrics and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(PERF_DIR), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

try:
    import repro
except ImportError as error:
    sys.exit(f"perf/run.py: the program is not importable from {SRC}: {error}")
if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
    sys.exit(f"perf/run.py: repro was imported from {repro.__file__}, not from {SRC}")

from layers import LAYERS  # noqa: E402
from workloads import CASES, OUT_DIR, load_pins, synthesize_days  # noqa: E402

#: Fresh children whose set-up time is measured; the last one is timed.
SETUP_CHILDREN = 5
DEFAULT_SECONDS = 20.0

#: End-to-end metrics in host time, with units.
END_TO_END = {
    "sim_rps": "req/s",
    "run_s_p50": "s",
    "run_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "ratio",
}
#: The ones BENCHMARK.json bounds.  ``failed_frac`` is 0 on a good run
#: and ``run_s_p90`` moves more with the host than any bound allows
#: (README.md, "Host drift"); both are printed and reported only.
GATED = ("sim_rps", "run_s_p50", "setup_s", "peak_rss_mb")

LAYER_SUFFIXES = {"self_frac": "ratio", "self_us_per_req": "us/req", "calls_per_req": "calls/req"}
PER_LAYER = {
    **{f"{layer}.{suffix}": unit
       for layer in LAYERS for suffix, unit in LAYER_SUFFIXES.items()},
    "sim.events_per_req": "events/req",
    "sim.run_calls_per_req": "calls/req",
    "cluster.epochs_per_req": "epochs/req",
    "cluster.fluid_frac": "ratio",
    "host.ref_s": "s",
    "trace.overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a run failing)."""


def spawn(name: str, seed: int, mode: str, *, seconds: float = 0.0,
          runs: Optional[int] = None, repeat_check: bool = False):
    """Run one child to completion: ``(set-up seconds, its report)``.

    Set-up time runs from just before the spawn to the child's "warm"
    line, which it prints when its warm-up run has returned.
    """
    argv = [sys.executable, os.path.join(PERF_DIR, "child.py"),
            "--workload", name, "--seed", str(seed), "--mode", mode,
            "--seconds", repr(seconds)]
    if runs is not None:
        argv += ["--runs", str(runs)]
    if repeat_check:
        argv.append("--repeat-check")
    # A fixed hash seed keeps set and dict layouts, and so host time,
    # the same from child to child.
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as child:
        warm = child.stdout.readline()
        setup = perf_counter() - start
        lines = child.stdout.read().splitlines()
    if child.returncode != 0 or not warm or not lines:
        raise BenchError(f"{name}: {mode} child exited with status {child.returncode}")
    return setup, json.loads(lines[-1])


def count_failed(records: List[list], pins: Optional[List[str]]) -> int:
    """Runs that raised or whose digest is not the expected one.

    With ``pins`` a run must match the pin of its input; without, every
    run of an input must match the first digest seen for that input.
    """
    first: Dict[int, str] = {}
    failed = 0
    for _phase, slot, digest in records:
        if digest is None:
            failed += 1
            continue
        expected = pins[slot] if pins is not None else first.setdefault(slot, digest)
        if digest != expected:
            failed += 1
    return failed


def _p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def layer_metrics(timed: Dict[str, Any], sampled: Dict[str, Any],
                  profiled: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics; layers outside :data:`LAYERS` are kept too."""
    us_per_req = 1e6 * sum(timed["times"]) / sum(timed["requests"])
    fractions = sampled["fractions"]
    calls = profiled["calls"]
    per_req = profiled["requests"]
    layers = list(LAYERS) + sorted(set(fractions).union(calls) - set(LAYERS))
    out: Dict[str, float] = {}
    for layer in layers:
        frac = fractions.get(layer, 0.0)
        out[f"{layer}.self_frac"] = frac
        out[f"{layer}.self_us_per_req"] = frac * us_per_req
        out[f"{layer}.calls_per_req"] = calls.get(layer, 0) / per_req
    out["sim.events_per_req"] = profiled["events"] / per_req
    out["sim.run_calls_per_req"] = profiled["runs"] / per_req
    out["cluster.epochs_per_req"] = sampled["epochs_per_req"]
    out["cluster.fluid_frac"] = sampled["fluid_frac"]
    out["trace.overhead"] = sampled["overhead"]
    return out


def measure(name: str, seed: int, *, seconds: float = DEFAULT_SECONDS,
            runs: Optional[int] = None, trace: bool = False,
            pins: Optional[List[str]] = None) -> Dict[str, Any]:
    """Measure one workload and check every run it made.

    Seed 0 is checked against ``pins`` (default: ``expected/<name>.json``);
    any other seed against itself (see ``count_failed``).
    """
    case = CASES[name]
    if case.uses_trace:
        synthesize_days(seed)
    if seed == 0 and pins is None:
        pins = load_pins(name)
    check = "pinned" if pins is not None else "fallback"

    setups: List[float] = []
    records: List[list] = []
    for _ in range(0 if trace else SETUP_CHILDREN - 1):
        setup, out = spawn(name, seed, "setup")
        setups.append(setup)
        records += out["records"]
    setup, out = spawn(name, seed, "trace" if trace else "timed", seconds=seconds,
                       runs=runs, repeat_check=pins is None)
    setups.append(setup)
    records += out["records"]

    timed = out["timed"]
    times, requests = timed["times"], timed["requests"]
    if not times:
        raise BenchError(f"{name}: no timed run completed")
    failed = count_failed(records, pins)
    metrics = {
        "sim_rps": sum(requests) / sum(times),
        "run_s_p50": statistics.median(times),
        "run_s_p90": _p90(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": timed["rss_mb"],
        "failed_frac": failed / len(records),
        "host.ref_s": statistics.median(timed["refs"]),
    }
    if trace:
        metrics.update(layer_metrics(timed, out["sampled"], out["profiled"]))
    return {
        "check": check,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
        "runs": len(times),
        "run_seconds": times,
        "host_ref_s": timed["refs"],
        "setup_seconds": setups,
    }


def _unit(metric: str) -> str:
    return END_TO_END.get(metric) or PER_LAYER.get(metric) or LAYER_SUFFIXES[metric.rsplit(".", 1)[1]]


def host_info() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def write_layer_table(name: str, seed: int, metrics: Dict[str, float]) -> str:
    """One row per layer in ``perf/out/``; its path."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}-seed{seed}-layers.txt")
    with open(path, "w") as handle:
        handle.write(f"{'layer':16s} {'self_frac':>10s} {'us/req':>10s} {'calls/req':>10s}\n")
        for key, frac in metrics.items():
            if key.endswith(".self_frac"):
                layer = key[: -len(".self_frac")]
                handle.write(f"{layer:16s} {frac:10.4f} "
                             f"{metrics[layer + '.self_us_per_req']:10.2f} "
                             f"{metrics[layer + '.calls_per_req']:10.2f}\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Host cost of four paper runs.")
    parser.add_argument("--workload", nargs="+", choices=sorted(CASES), default=list(CASES),
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is checked against perf/expected (default 0)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="runner seconds to time per workload, rounded up to whole "
                             f"passes over its ladder (default {DEFAULT_SECONDS:g})")
    parser.add_argument("--runs", type=int,
                        help="exactly this many timed runs instead of --seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: also run the sampled and profiled passes and "
                             "report per-layer metrics")
    parser.add_argument("--json", metavar="OUT", help="write the full report here")
    args = parser.parse_args(argv)
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be at least 1")

    results: Dict[str, Dict[str, Any]] = {}
    try:
        for name in args.workload:
            results[name] = measure(name, args.seed, seconds=args.seconds,
                                    runs=args.runs, trace=bool(args.trace))
    except (OSError, RuntimeError) as error:
        print(f"perf/run.py: {error}", file=sys.stderr)
        return 2

    final: Dict[str, Dict[str, Any]] = {}
    for name, result in results.items():
        print(f"{name}: {result['runs']} timed runs, {result['attempted']} checked "
              f"({result['check']}), {result['failed']} failed")
        metrics = result["metrics"]
        for metric, value in metrics.items():
            print(f"  {name:12s} {metric:28s} {value:16.6g} {_unit(metric)}")
        for metric in PER_LAYER if args.trace else GATED:
            key = metric if len(results) == 1 else f"{name}.{metric}"
            final[key] = {"value": metrics[metric], "unit": _unit(metric)}
        if args.trace:
            print(f"  layer table: {write_layer_table(name, args.seed, metrics)}")

    if args.json:
        report = {
            "host": host_info(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "workloads": {
                name: {**r, "metrics": {m: {"value": v, "unit": _unit(m)}
                                        for m, v in r["metrics"].items()}}
                for name, r in results.items()
            },
        }
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
