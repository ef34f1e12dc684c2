"""Pin the seed-0 output digests in ``perf/expected/<workload>.json``.

    PYTHONPATH=src python perf/pin.py [--workload NAME ...]

Every input a benchmark child can run for ``--seed 0`` is run once on
the virtual clock, so pinning ``replay_ff`` also makes every benchmark
run check that fast-forward matches the virtual clock.  Re-pin only in a
change that means to alter simulated results, and say so in it; a
performance change never re-pins.
"""

from __future__ import annotations

import argparse
import json
import os

from workloads import CASES, EXPECTED_DIR, PIN_RUNS, expected_path, synthesize_days


def pin(name: str) -> list:
    case = CASES[name]
    if case.uses_trace:
        synthesize_days(0)
    digests = []
    for run in range(PIN_RUNS):
        _slot, call = case.call(0, run, virtual=True)
        digests.append(case.digest(call()))
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Pin seed-0 output digests.")
    parser.add_argument("--workload", nargs="+", choices=sorted(CASES), default=list(CASES))
    args = parser.parse_args(argv)
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    for name in args.workload:
        document = {"workload": name, "seed": 0, "clock": "virtual", "digests": pin(name)}
        with open(expected_path(name), "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"pinned {PIN_RUNS} runs of {name} in {expected_path(name)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
