"""One benchmark child: a fresh interpreter that runs one workload.

Started by ``run.py``, one child at a time, with ``PYTHONPATH`` pointing
at the checkout's ``src``.  It prints one JSON line once its warm-up run
has returned (the parent stops its set-up clock there) and one JSON line
with everything it measured when it is done.

Modes:

- ``setup``: warm-up run only.
- ``timed``: warm-up, then timed runs adding up to ``--seconds`` (in
  whole passes over the ladder) or exactly ``--runs``; ``host.ref_s``
  before every ``REF_EVERY`` runs.
- ``trace``: a cProfile pass over the first ``PROFILE_RUNS`` inputs
  right after the warm-up, then ``timed``, then the first
  ``TRACE_RUNS`` inputs each run twice, plain and ``SIGPROF``-sampled.

Every run's output digest goes back to the parent, which checks them.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import sys
import traceback
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Dict, List, Optional

from layers import Sampler, count_calls
from workloads import CASES, OUT_DIR, Case

REF_EVERY = 10
TRACE_RUNS = 20
PROFILE_RUNS = 8


def _ticks(heap: list, count: int):
    for i in range(count):
        heappush(heap, ((i * 7919) % 1009, i))
        yield i


def reference_loop(count: int = 20_000) -> float:
    """Seconds for a fixed stdlib-only heap-and-generator loop (host drift)."""
    start = perf_counter()
    heap: list = []
    for _ in _ticks(heap, count):
        pass
    while heap:
        heappop(heap)
    return perf_counter() - start


def _emit(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


class Child:
    """Runs and checks one workload's inputs; accumulates what it saw."""

    def __init__(self, case: Case, seed: int) -> None:
        self.case = case
        self.seed = seed
        #: ``[phase, slot, digest or None]`` for every run attempted.
        self.records: List[list] = []

    def run(self, phase: str, index: int, virtual: bool = False, hook=None):
        """Run input ``index`` once: ``(seconds, result)``, with ``result``
        ``None`` if the run raised.

        ``hook(on)`` is called with ``True`` just before the runner call
        and ``False`` just after, around exactly the timed region.
        """
        slot, call = self.case.call(self.seed, index, virtual)
        if hook is not None:
            hook(True)
        start = perf_counter()
        try:
            result = call()
        except Exception:
            result = None
            traceback.print_exc()
        elapsed = perf_counter() - start
        if hook is not None:
            hook(False)
        self.records.append([phase, slot, None if result is None else self.case.digest(result)])
        return elapsed, result

    def timed(self, seconds: float, runs: Optional[int]) -> Dict[str, Any]:
        """Timed runs until ``runs`` are done, or else until they add up
        to ``seconds`` at the end of a whole pass over the ladder.

        Counting only runner seconds keeps the work measured the same
        however long the digests take.
        """
        width = len(self.case.ladder)
        times: List[float] = []  # successful runs only
        requests: List[int] = []
        refs: List[float] = []
        spent = 0.0
        index = 0
        while index < runs if runs is not None else index % width or spent < seconds:
            if index % REF_EVERY == 0:
                refs.append(reference_loop())
            elapsed, result = self.run("timed", index)
            spent += elapsed
            if result is not None:
                times.append(elapsed)
                requests.append(self.case.requests(result))
            del result  # the next run starts without this one's result alive
            index += 1
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"times": times, "requests": requests, "refs": refs, "rss_mb": rss_kib / 1024}

    def sampled(self) -> Dict[str, Any]:
        """Layer fractions over ``TRACE_RUNS`` sampled runs.

        Each input also runs once unsampled, alternately before and after
        its sampled run, so the two host times compare like with like.
        """
        plain = sampled = 0.0
        requests = epochs = fluid = completed = 0
        with Sampler() as sampler:
            for index in range(TRACE_RUNS):
                if index % 2 == 0:
                    plain += self.run("plain", index)[0]
                elapsed, result = self.run("sampled", index, hook=sampler.arm)
                sampled += elapsed
                if index % 2 == 1:
                    plain += self.run("plain", index)[0]
                if result is None:
                    continue
                requests += self.case.requests(result)
                # Only ClusterResult has epochs and a fluid model.
                epochs += getattr(result, "epochs", 0)
                fluid += getattr(result, "fluid_served", 0)
                completed += getattr(result, "completed", 0)
        return {
            "fractions": sampler.fractions(),
            "samples": sum(sampler.counts.values()),
            "overhead": sampled / plain,
            "epochs_per_req": epochs / requests if requests else 0.0,
            "fluid_frac": fluid / completed if completed else 0.0,
        }

    def profiled(self) -> Dict[str, Any]:
        """Exact call counts over ``PROFILE_RUNS`` cProfiled runs.

        Run straight after the warm-up, so the process state it starts
        from, and with it every count, never depends on how many timed
        runs fitted in the timed phase.
        """
        profile = cProfile.Profile()
        requests = 0

        def hook(on: bool) -> None:
            if on:
                profile.enable()
            else:
                profile.disable()

        for index in range(PROFILE_RUNS):
            _elapsed, result = self.run("profiled", index, hook=hook)
            if result is not None:
                requests += self.case.requests(result)
        os.makedirs(OUT_DIR, exist_ok=True)
        profile.dump_stats(os.path.join(OUT_DIR, f"{self.case.name}-seed{self.seed}.pstats"))
        return {**count_calls(profile), "requests": requests}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "timed", "trace"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--repeat-check", action="store_true",
                        help="after the timed runs, rerun input 0 on the virtual clock")
    args = parser.parse_args(argv)

    child = Child(CASES[args.workload], args.seed)
    child.run("warmup", 0)
    _emit({"warm": True})
    out: Dict[str, Any] = {}
    if args.mode == "trace":
        out["profiled"] = child.profiled()
    if args.mode != "setup":
        out["timed"] = child.timed(args.seconds, args.runs)
        if args.mode == "trace":
            out["sampled"] = child.sampled()
        if args.repeat_check:
            child.run("repeat", 0, virtual=True)
    out["records"] = child.records
    _emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
