"""Lazy arrival sources: the executable form of a workload.

An :class:`ArrivalSource` is what a load-generating client actually
consumes inside the simulation: ``next_interval(now)`` returns the
delay to the next arrival (``None`` once the workload is exhausted),
and ``next_image()`` — called after the delay elapses — returns the
request payload and stamps the arrival's phase/user/session-state on
the source.

All three implementations stream lazily: nothing precomputes a
schedule list, so a 100M-event synthesized day (or replayed trace)
never materializes in memory.  Zero-rate gaps cost candidate draws in
the thinning loop, not idle re-polls — the source only ever reports
*actual* arrivals, so a client never has to guess whether a wake-up
carries a request.

RNG discipline matches :class:`~repro.sim.rng.RandomStreams`: every
source draws from named streams (``{prefix}:arrivals``,
``{prefix}:images``, ``{prefix}:sessions``) derived from the run seed,
so seeded runs are deterministic and adding a draw to one component
never perturbs another.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

from ..sim.rng import RandomStreams
from ..vision.datasets import Dataset
from .arrivals import ArrivalModel
from .sessions import MarkovSessionModel
from .trace import TraceEvent

__all__ = [
    "ArrivalSource",
    "ConstantSource",
    "SyntheticSource",
    "ReplaySource",
]

#: Candidate-draw cap per accepted arrival; a correctly validated model
#: (positive peak, almost-everywhere-positive rate) never approaches
#: it, but it turns a degenerate envelope into an error, not a hang.
_MAX_THINNING_CANDIDATES = 10_000_000


class ArrivalSource:
    """Iterator-style protocol a load-generating client drives."""

    #: Stamped by :meth:`next_image` for the arrival it returned.
    last_phase: Optional[str] = None
    last_user: Optional[int] = None
    last_state: Optional[str] = None
    last_key: Optional[int] = None

    #: The rate envelope, when known (telemetry rate views).
    model: Optional[ArrivalModel] = None

    def next_interval(self, now: float) -> Optional[float]:
        """Seconds until the next arrival, or ``None`` when exhausted."""
        raise NotImplementedError

    def next_image(self):
        """Payload of the arrival announced by :meth:`next_interval`."""
        raise NotImplementedError


class ConstantSource(ArrivalSource):
    """Homogeneous Poisson arrivals with one draw per arrival.

    The interval is ``expovariate(rate)`` on ``{prefix}:arrivals`` and
    the image comes from ``{prefix}:images``.  Thinning a constant rate
    would accept every candidate but spend two draws on each, so this
    source is the same process on half the draws, and every
    constant-rate seed keeps its stream.
    """

    def __init__(
        self,
        rate: float,
        dataset: Dataset,
        streams: RandomStreams,
        prefix: str = "client",
        duration_seconds: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = rate
        self.dataset = dataset
        self.duration_seconds = duration_seconds
        self._arrival_rng = streams.stream(f"{prefix}:arrivals")
        self._image_rng = streams.stream(f"{prefix}:images")

    def next_interval(self, now: float) -> Optional[float]:
        interval = self._arrival_rng.expovariate(self.rate)
        if (self.duration_seconds is not None
                and now + interval > self.duration_seconds):
            return None
        return interval

    def next_image(self):
        return self.dataset.sample(self._image_rng)


class SyntheticSource(ArrivalSource):
    """Time-varying Poisson arrivals via Lewis-Shedler thinning, with
    optional per-user Markov sessions layered on top.

    Without sessions, each thinned point is one request.  With a
    session model, each thinned point *starts a session* and the
    source lazily merges the per-user request streams through a heap —
    the next emitted request is always the earliest pending one, and
    every RNG draw happens at a deterministic position in that order.
    """

    def __init__(
        self,
        model: ArrivalModel,
        dataset: Dataset,
        streams: RandomStreams,
        prefix: str = "client",
        sessions: Optional[MarkovSessionModel] = None,
        duration_seconds: Optional[float] = None,
        start_time: float = 0.0,
    ) -> None:
        self.model = model.validate()
        self.dataset = dataset
        self.sessions = sessions
        self.duration_seconds = duration_seconds
        self._arrival_rng = streams.stream(f"{prefix}:arrivals")
        self._image_rng = streams.stream(f"{prefix}:images")
        self._session_rng = (
            streams.stream(f"{prefix}:sessions") if sessions is not None else None
        )
        self._peak = self.model.peak_rate()
        self._clock = float(start_time)  # thinning candidate clock
        self._users = 0
        #: (time, tiebreak, user, state, iterator) — pending per-user
        #: next requests; tiebreak keeps heap order total and stable.
        self._heap: List[Tuple[float, int, int, str, Iterator]] = []
        self._tiebreak = 0
        #: Next accepted session-start/arrival time (one-step lookahead),
        #: or None once the envelope is exhausted.
        self._next_start: Optional[float] = self._draw_start()
        self._pending: Optional[Tuple[float, Optional[int], Optional[str]]] = None

    # -- thinning ------------------------------------------------------------

    def _draw_start(self) -> Optional[float]:
        """Next accepted point of the non-homogeneous process (lazy)."""
        rng = self._arrival_rng
        peak = self._peak
        t = self._clock
        for _ in range(_MAX_THINNING_CANDIDATES):
            t += rng.expovariate(peak)
            if self.duration_seconds is not None and t > self.duration_seconds:
                self._clock = t
                return None
            # Accept with probability rate(t)/peak; rejected candidates
            # are exactly how zero-rate gaps pass without emitting.
            if rng.random() * peak <= self.model.rate_at(t):
                self._clock = t
                return t
        raise RuntimeError(
            f"thinning drew {_MAX_THINNING_CANDIDATES} candidates without an "
            f"accept — arrival model {self.model.name!r} is effectively zero")

    # -- merge ---------------------------------------------------------------

    def _push_session(self, user: int, iterator: Iterator) -> None:
        entry = next(iterator, None)
        if entry is None:
            return
        t, state = entry
        self._tiebreak += 1
        heapq.heappush(self._heap, (t, self._tiebreak, user, state, iterator))

    def next_interval(self, now: float) -> Optional[float]:
        if self.sessions is None:
            start = self._next_start
            if start is None:
                return None
            self._next_start = self._draw_start()
            self._pending = (start, None, None)
            return max(0.0, start - now)
        # Merge: earliest of (next session start, earliest queued request).
        while True:
            head = self._heap[0][0] if self._heap else None
            start = self._next_start
            if start is not None and (head is None or start <= head):
                # A new session begins: enqueue its first request and
                # loop (that request may itself be the earliest event).
                self._users += 1
                user = self._users
                self._push_session(
                    user, self.sessions.requests(start, self._session_rng))
                self._next_start = self._draw_start()
                continue
            if head is None:
                return None  # no sessions left and the envelope is done
            t, _, user, state, iterator = heapq.heappop(self._heap)
            self._push_session(user, iterator)  # schedule the follow-up
            self._pending = (t, user, state)
            return max(0.0, t - now)

    def next_image(self):
        if self._pending is None:
            raise RuntimeError("next_image() before next_interval()")
        t, user, state = self._pending
        self._pending = None
        self.last_phase = self.model.phase_at(t)
        self.last_user = user
        self.last_state = state
        sample_index = getattr(self.dataset, "sample_index", None)
        if sample_index is not None:
            self.last_key = sample_index(self._image_rng)
            return self.dataset.catalog[self.last_key]
        self.last_key = None
        return self.dataset.sample(self._image_rng)


class ReplaySource(ArrivalSource):
    """Replays a recorded trace, event for event, lazily.

    Events carrying a catalog key map straight back to the recorded
    item (no RNG draw); keyless events draw from the dataset's image
    stream, so a trace recorded without a catalog still replays
    deterministically under a fixed seed.
    """

    def __init__(
        self,
        events: Iterator[TraceEvent],
        dataset: Dataset,
        streams: RandomStreams,
        prefix: str = "client",
        model: Optional[ArrivalModel] = None,
    ) -> None:
        self._events = events
        self.dataset = dataset
        self.model = model
        self._image_rng = streams.stream(f"{prefix}:images")
        self._pending: Optional[TraceEvent] = None
        self.replayed = 0

    def next_interval(self, now: float) -> Optional[float]:
        event = next(self._events, None)
        if event is None:
            return None
        self._pending = event
        return max(0.0, event.t - now)

    def next_image(self):
        event = self._pending
        if event is None:
            raise RuntimeError("next_image() before next_interval()")
        self._pending = None
        self.replayed += 1
        self.last_phase = event.phase
        self.last_user = event.user
        self.last_state = event.state
        self.last_key = event.key
        if event.key is not None:
            catalog = getattr(self.dataset, "catalog", None)
            if catalog is None:
                raise ValueError(
                    "trace event carries a catalog key but the replay "
                    f"dataset {self.dataset.name!r} has no catalog")
            if not 0 <= event.key < len(catalog):
                raise ValueError(
                    f"trace catalog key {event.key} outside the replay "
                    f"catalog of {len(catalog)} items")
            return catalog[event.key]
        return self.dataset.sample(self._image_rng)
