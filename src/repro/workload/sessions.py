"""Per-user Markov session models.

Real users do not issue independent requests: they arrive, click
through a burst of activity, pause, and leave.  A
:class:`MarkovSessionModel` captures that as a small continuous-time
Markov chain over behavioural states: each request is issued from a
state, the think time to the next request is exponential with the
state's mean, and after every request the chain either transitions
(per the row-stochastic transition matrix) or ends the session with
the state's exit probability.

Layered under a time-varying *session arrival* process (sessions start
per the workload's :class:`~repro.workload.arrivals.ArrivalModel`),
this produces the request-level burstiness and temporal correlation
that independent Poisson arrivals cannot: requests cluster per user,
and a flash crowd of session starts turns into a longer-lived wave of
request load as those sessions play out.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..sim.sums import float_sum

__all__ = ["MarkovSessionModel", "SessionState"]


class SessionState:
    """One behavioural state of the session chain."""

    __slots__ = ("name", "think_mean_seconds", "exit_probability")

    def __init__(self, name: str, think_mean_seconds: float,
                 exit_probability: float) -> None:
        if not name:
            raise ValueError("state needs a name")
        if think_mean_seconds <= 0:
            raise ValueError(
                f"think_mean_seconds must be positive, got {think_mean_seconds}")
        if not 0 < exit_probability <= 1:
            raise ValueError(
                f"exit_probability must be in (0, 1], got {exit_probability}")
        self.name = name
        self.think_mean_seconds = float(think_mean_seconds)
        self.exit_probability = float(exit_probability)


class MarkovSessionModel:
    """Finite-state Markov chain generating one user's request times.

    Args:
        states: the behavioural states, first one is the entry state.
        transitions: ``{state: {next_state: probability}}`` rows; each
            row must sum to 1 over the *continue* branch (the exit
            branch is taken first with the state's exit probability).
        max_requests: hard cap per session (guards mis-configured
            chains whose expected length diverges).

    The default chain is a classic two-state browse/burst model: most
    requests come from a slow "browse" state, with excursions into a
    fast "burst" state (image-upload batches, infinite-scroll runs).
    """

    def __init__(
        self,
        states: Optional[Sequence[SessionState]] = None,
        transitions: Optional[Mapping[str, Mapping[str, float]]] = None,
        max_requests: int = 256,
    ) -> None:
        if states is None:
            states = (
                SessionState("browse", think_mean_seconds=2.0, exit_probability=0.12),
                SessionState("burst", think_mean_seconds=0.15, exit_probability=0.05),
            )
            transitions = {
                "browse": {"browse": 0.85, "burst": 0.15},
                "burst": {"burst": 0.7, "browse": 0.3},
            }
        if not states:
            raise ValueError("session model needs at least one state")
        names = [state.name for state in states]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate state names in {names}")
        if transitions is None:
            transitions = {name: {name: 1.0} for name in names}
        for name in names:
            row = transitions.get(name)
            if not row:
                raise ValueError(f"state {name!r} has no transition row")
            if any(target not in names for target in row):
                raise ValueError(f"transition row {name!r} names unknown states")
            total = float_sum(row.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"transition row {name!r} sums to {total}, expected 1.0")
        if max_requests < 1:
            raise ValueError(f"max_requests must be >= 1, got {max_requests}")
        self.states: Dict[str, SessionState] = {s.name: s for s in states}
        self.entry_state = states[0].name
        self.transitions = {
            name: tuple(sorted(row.items())) for name, row in transitions.items()
        }
        self.max_requests = int(max_requests)

    @property
    def mean_session_length(self) -> float:
        """Expected requests per session, ignoring the hard cap.

        Solves ``L = 1 + (1 - exit) * P @ L`` for the entry state via
        fixed-point iteration (the chain is small).
        """
        lengths = {name: 1.0 for name in self.states}
        for _ in range(512):
            new = {}
            for name, state in self.states.items():
                cont = 1.0 - state.exit_probability
                follow = float_sum(p * lengths[target]
                                   for target, p in self.transitions[name])
                new[name] = 1.0 + cont * follow
            if all(abs(new[k] - lengths[k]) < 1e-12 for k in lengths):
                lengths = new
                break
            lengths = new
        return min(lengths[self.entry_state], float(self.max_requests))

    def _next_state(self, current: str, rng: random.Random) -> str:
        u = rng.random()
        acc = 0.0
        row = self.transitions[current]
        for target, probability in row:
            acc += probability
            if u <= acc:
                return target
        return row[-1][0]

    def requests(self, start: float, rng: random.Random) -> Iterator[Tuple[float, str]]:
        """Lazily yield ``(time, state_name)`` for one session.

        The first request is at ``start`` (the session's arrival); every
        draw comes from ``rng`` in a fixed order, so a session is a pure
        function of ``(start, rng state)``.
        """
        state_name = self.entry_state
        t = float(start)
        for _ in range(self.max_requests):
            yield t, state_name
            state = self.states[state_name]
            if rng.random() < state.exit_probability:
                return
            t += rng.expovariate(1.0 / state.think_mean_seconds)
            state_name = self._next_state(state_name, rng)

    def describe(self) -> Dict[str, object]:
        return {
            "kind": "MarkovSessionModel",
            "entry_state": self.entry_state,
            "mean_session_length": self.mean_session_length,
            "max_requests": self.max_requests,
            "states": [
                {"name": s.name, "think_mean_seconds": s.think_mean_seconds,
                 "exit_probability": s.exit_probability}
                for s in self.states.values()
            ],
            "transitions": {
                name: dict(row) for name, row in self.transitions.items()
            },
        }


def session_model_from_dict(data: Dict[str, object]) -> Optional[MarkovSessionModel]:
    """Rebuild a session model from :meth:`MarkovSessionModel.describe`."""
    if data.get("kind") != "MarkovSessionModel":
        return None
    states = [
        SessionState(s["name"], think_mean_seconds=float(s["think_mean_seconds"]),
                     exit_probability=float(s["exit_probability"]))
        for s in data["states"]
    ]
    entry = data.get("entry_state")
    if entry is not None and states and states[0].name != entry:
        states.sort(key=lambda s: 0 if s.name == entry else 1)
    return MarkovSessionModel(
        states=states,
        transitions={name: dict(row)
                     for name, row in data["transitions"].items()},
        max_requests=int(data.get("max_requests", 256)),
    )
