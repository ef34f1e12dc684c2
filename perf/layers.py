"""Per-layer attribution of host time and call counts, taken from outside.

A layer is a ``repro`` package (``sim`` split by module, with rng,
monitor and calendar as ``sim.other``); Python code outside ``repro``
is ``stdlib``.  Nothing here touches the program: the sampler reads the
interrupted frame from a ``SIGPROF`` handler, and call counts come from
:mod:`cProfile`, whose timings are discarded because its per-call cost
inflates layers that make many small calls.
"""

from __future__ import annotations

import asyncio.runners
import cProfile
import functools
import os
import pstats
import signal
from collections import Counter
from typing import Dict, Tuple

import repro
from repro.sim import Environment

#: Layers that do work in some workload, in report order.
LAYERS = (
    "sim.engine", "sim.process", "sim.resources", "sim.stores", "sim.events",
    "sim.containers", "sim.other", "kernel", "core", "hardware", "vision",
    "models", "brokers", "apps", "serving", "cluster", "workload", "telemetry",
    "stdlib",
)

_SIM_SPLIT = {"engine", "process", "resources", "stores", "events", "containers"}
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

SAMPLE_INTERVAL = 1e-3


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``stdlib`` outside ``repro``).

    A ``repro`` package not in :data:`LAYERS` keeps its own name, so a
    layer that starts doing work shows up instead of being folded away.
    """
    path = os.path.abspath(filename)
    if not path.startswith(_REPRO_DIR):
        return "stdlib"
    parts = path[len(_REPRO_DIR):].split(os.sep)
    if len(parts) == 1:
        return "repro"
    if parts[0] == "sim":
        module = parts[1][:-3]
        return f"sim.{module}" if module in _SIM_SPLIT else "sim.other"
    return parts[0]


#: ``co_filename`` of code made by ``exec`` (dataclass ``__init__``,
#: ``namedtuple`` methods): charged to the layer that called it.
GENERATED = "<string>"


class Sampler:
    """``ITIMER_PROF`` stack sampler counting innermost frames by layer.

    Samples are taken only between ``arm(True)`` and ``arm(False)``, so
    the harness leaves its own bookkeeping out.  Time in a C builtin is
    charged to the Python frame that called it.  The kernel may round
    the interval up to its timer tick.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL) -> None:
        self.interval = interval
        self.counts: Counter = Counter()
        self.active = False
        self._previous = None

    def _on_sample(self, signum, frame) -> None:
        if not self.active:
            return
        while frame is not None and frame.f_code.co_filename == GENERATED:
            frame = frame.f_back
        if frame is not None:
            self.counts[layer_of(frame.f_code.co_filename)] += 1

    def arm(self, on: bool) -> None:
        """Start (``True``) or stop (``False``) sampling."""
        if on:
            self.active = True
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        else:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            self.active = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        return self

    def __exit__(self, *exc) -> None:
        self.arm(False)
        signal.signal(signal.SIGPROF, self._previous)

    def fractions(self) -> Dict[str, float]:
        total = sum(self.counts.values())
        return {layer: count / total for layer, count in self.counts.items()} if total else {}


def _code_key(function) -> Tuple[str, int, str]:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


#: Functions that put an event on the queue.
EVENT_FUNCTIONS = frozenset(
    _code_key(f) for f in (Environment.schedule, Environment.schedule_at, Environment.timeout))
#: Dispatch-loop entries: one ``Environment.run`` per virtual-clock
#: slice, one ``asyncio.run`` per ``AsyncioBackend.run_async`` drive
#: (``run_async`` itself is re-entered on every ``await``).
RUN_FUNCTIONS = frozenset((_code_key(Environment.run), _code_key(asyncio.runners.run)))


def count_calls(profile: cProfile.Profile) -> Dict[str, int]:
    """Calls into each layer from outside it, plus event and run counts.

    A caller that is a C builtin (a generator ``send`` resuming a
    process, a ``sort`` key) counts as outside every layer.  Generated
    code belongs to the layer of its most frequent caller.
    """
    stats = pstats.Stats(profile).stats
    generated: Dict[Tuple, str] = {}
    for func, (_cc, _nc, _tt, _ct, callers) in stats.items():
        if func[0] == GENERATED:
            # Per-caller entries are ordered (nc, cc, tt, ct), unlike the
            # function's own (cc, nc, tt, ct, callers).
            real = [c for c in callers if c[0] not in ("~", GENERATED)]
            top = max(real, key=lambda c: callers[c][0]) if real else None
            generated[func] = layer_of(top[0]) if top else "stdlib"

    def layer(func) -> str:
        return generated.get(func) or layer_of(func[0])

    calls: Counter = Counter()
    events = runs = 0
    for func, (_cc, nc, _tt, _ct, callers) in stats.items():
        if func[0] == "~":
            continue
        into = layer(func)
        for caller, (caller_nc, _ccc, _ctt, _cct) in callers.items():
            if caller[0] == "~" or layer(caller) != into:
                calls[into] += caller_nc
        if func in EVENT_FUNCTIONS:
            events += nc
        elif func in RUN_FUNCTIONS:
            runs += nc
    return {"calls": dict(calls), "events": events, "runs": runs}
