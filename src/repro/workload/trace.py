"""Compact trace record/replay format: JSONL, optionally gzipped.

A trace file is a header line followed by one event per line:

    {"format": "repro-trace-v1", "name": ..., "seed": ..., "workload": {...}}
    {"t": 0.01371, "p": "night"}
    {"t": 0.09822, "p": "night", "k": 17, "u": 4, "s": "burst"}
    ...

Event fields (all but ``t`` optional, omitted when null to keep a
100M-event day compact):

- ``t``: absolute arrival time in simulated seconds (strictly
  non-decreasing);
- ``k``: catalog index of the requested item, when the workload's
  dataset has a finite catalog (``ZipfDataset``) — replay maps it back
  to the identical image;
- ``u``: user/session id for session-model workloads;
- ``s``: session state ("browse", "burst", ...) the request was issued
  from;
- ``p``: workload phase label at the arrival ("day", "flash", ...).

Determinism is the whole point: synthesis is a pure function of
``(workload, seed)``, the writer emits canonical JSON (sorted keys,
``repr``-exact floats) and gzips with a zeroed mtime, so the same spec
always produces byte-identical files, and :func:`trace_digest` (SHA-256
over the *uncompressed* bytes) pins a trace across platforms.

Reading is lazy end to end — :func:`read_trace` reads the header and
closes the file; its event iterator opens the file on the first
``next()`` and decodes one chunk of about 16 KiB of lines per
``json.loads`` call, so replaying a trace never holds more than one
chunk of it in memory (see :class:`~repro.workload.source.ReplaySource`).
A line that is not an event, or an event earlier than the one before
it, raises :class:`ValueError` naming the file and the line.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "TRACE_FORMAT",
    "TraceEvent",
    "TraceMeta",
    "write_trace",
    "read_trace",
    "read_trace_meta",
    "trace_digest",
    "describe_trace",
]

TRACE_FORMAT = "repro-trace-v1"

#: Characters of event lines decoded per ``json.loads`` call.
_CHUNK_CHARS = 1 << 14


class TraceEvent:
    """One request arrival in a trace."""

    __slots__ = ("t", "key", "user", "state", "phase")

    def __init__(
        self,
        t: float,
        key: Optional[int] = None,
        user: Optional[int] = None,
        state: Optional[str] = None,
        phase: Optional[str] = None,
    ) -> None:
        self.t = t
        self.key = key
        self.user = user
        self.state = state
        self.phase = phase

    def __repr__(self) -> str:
        return f"<TraceEvent t={self.t:.6f} key={self.key} user={self.user}>"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.t, self.key, self.user, self.state, self.phase) == (
            other.t, other.key, other.user, other.state, other.phase)

    def to_line(self) -> str:
        """Canonical JSON line (sorted keys, nulls omitted)."""
        record: Dict[str, object] = {"t": self.t}
        if self.key is not None:
            record["k"] = self.key
        if self.user is not None:
            record["u"] = self.user
        if self.state is not None:
            record["s"] = self.state
        if self.phase is not None:
            record["p"] = self.phase
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "TraceEvent":
        record = json.loads(line)
        return cls(
            t=float(record["t"]),
            key=record.get("k"),
            user=record.get("u"),
            state=record.get("s"),
            phase=record.get("p"),
        )


class TraceMeta:
    """Trace header: provenance needed to re-synthesize or replay."""

    __slots__ = ("name", "seed", "duration_seconds", "workload", "extras")

    def __init__(
        self,
        name: str = "trace",
        seed: int = 0,
        duration_seconds: Optional[float] = None,
        workload: Optional[Dict[str, object]] = None,
        extras: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.seed = int(seed)
        self.duration_seconds = duration_seconds
        self.workload = workload
        self.extras = dict(extras or {})

    def to_line(self) -> str:
        record: Dict[str, object] = {
            "format": TRACE_FORMAT,
            "name": self.name,
            "seed": self.seed,
        }
        if self.duration_seconds is not None:
            record["duration_seconds"] = self.duration_seconds
        if self.workload is not None:
            record["workload"] = self.workload
        record.update(self.extras)
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_line(cls, line: str) -> "TraceMeta":
        record = json.loads(line)
        if record.get("format") != TRACE_FORMAT:
            raise ValueError(
                f"not a {TRACE_FORMAT} trace (header: {line[:120]!r})")
        known = {"format", "name", "seed", "duration_seconds", "workload"}
        return cls(
            name=record.get("name", "trace"),
            seed=int(record.get("seed", 0)),
            duration_seconds=record.get("duration_seconds"),
            workload=record.get("workload"),
            extras={k: v for k, v in record.items() if k not in known},
        )


def _is_gzip(path: str) -> bool:
    return path.endswith(".gz")


def write_trace(path: str, meta: TraceMeta, events: Iterable[TraceEvent]) -> int:
    """Stream ``events`` to ``path`` (gzipped iff it ends in ``.gz``).

    Events are consumed lazily — a generator of 100M events never
    lives in memory — and must be in non-decreasing time order
    (enforced; replay depends on it).  Returns the event count.

    The gzip stream is written with ``mtime=0`` so identical content
    always produces identical bytes (golden-trace tests diff files).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    count = 0
    last_t = -float("inf")
    if _is_gzip(path):
        raw = open(path, "wb")
        # filename="" and mtime=0 keep the gzip header content-only, so
        # identical events always produce identical bytes regardless of
        # output path or wall clock.
        handle: io.TextIOBase = io.TextIOWrapper(
            gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0),
            encoding="utf-8", newline="\n")
    else:
        raw = None
        handle = open(path, "w", encoding="utf-8", newline="\n")
    try:
        handle.write(meta.to_line() + "\n")
        for event in events:
            if event.t < last_t:
                raise ValueError(
                    f"events must be time-ordered: {event.t} after {last_t}")
            last_t = event.t
            handle.write(event.to_line() + "\n")
            count += 1
    finally:
        handle.close()
        if raw is not None:
            raw.close()
    return count


def _open_text(path: str) -> io.TextIOBase:
    if _is_gzip(path):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, encoding="utf-8")


def read_trace(path: str) -> Tuple[TraceMeta, Iterator[TraceEvent]]:
    """Open a trace: return its header and a *lazy* event iterator.

    The header is read, and the file closed, before this returns.  The
    iterator opens the file again on its first ``next()`` and holds it
    until it is exhausted or closed.  A malformed event line, or an
    event earlier than the one before it (equal times are fine), raises
    :class:`ValueError` naming ``path`` and the 1-based line.
    """
    return read_trace_meta(path), _read_events(path)


def _read_events(path: str) -> Iterator[TraceEvent]:
    with _open_text(path) as handle:
        handle.readline()  # the header
        lineno = 1  # lines before the chunk
        last_t = -float("inf")
        while True:
            lines = handle.readlines(_CHUNK_CHARS)
            if not lines:
                return
            events = _decode_chunk(path, lines, lineno, last_t)
            lineno += len(lines)
            if events:
                last_t = events[-1].t
                yield from events


def _decode_chunk(
    path: str, lines: List[str], lineno: int, last_t: float,
) -> List[TraceEvent]:
    """The events of ``lines``, decoded as one JSON array.

    Anything amiss (a line that is not one event object, or an event
    earlier than ``last_t`` or than the one before it) sends the chunk
    through :func:`_decode_lines`, which raises at the first bad line.
    """
    kept = [line for line in lines if not line.isspace()]
    try:
        records = json.loads("[" + ",".join(kept) + "]")
        events = [
            TraceEvent(float(record["t"]), record.get("k"), record.get("u"),
                       record.get("s"), record.get("p"))
            for record in records
        ]
    except (ValueError, KeyError, TypeError):
        events = None
    if events is not None and len(events) == len(kept):
        previous = last_t
        for event in events:
            if event.t < previous:
                break
            previous = event.t
        else:
            return events
    return _decode_lines(path, lines, lineno, last_t)


def _decode_lines(
    path: str, lines: List[str], lineno: int, last_t: float,
) -> List[TraceEvent]:
    """Decode ``lines`` one at a time; raise at the first bad line."""
    events = []
    for number, line in enumerate(lines, lineno + 1):
        if line.isspace():
            continue
        try:
            event = TraceEvent.from_line(line)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(
                f"{path}:{number}: not a trace event ({exc!r}): {line[:120]!r}"
            ) from exc
        if event.t < last_t:
            raise ValueError(
                f"{path}:{number}: event at t={event.t!r} is earlier than "
                f"the one before it at t={last_t!r}; trace events must be "
                "time-ordered")
        last_t = event.t
        events.append(event)
    return events


def read_trace_meta(path: str) -> TraceMeta:
    """Read just the header (opens and closes the file immediately)."""
    with _open_text(path) as handle:
        header = handle.readline()
    if not header:
        raise ValueError(f"{path}: empty trace file")
    return TraceMeta.from_line(header)


def trace_digest(path: str) -> str:
    """SHA-256 over the uncompressed trace bytes (platform-stable)."""
    digest = hashlib.sha256()
    opener = gzip.open if _is_gzip(path) else open
    with opener(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def describe_trace(path: str) -> Dict[str, object]:
    """One streaming pass over a trace: counts, rates, phase mix."""
    meta, events = read_trace(path)
    count = 0
    first_t = last_t = 0.0
    phases: Dict[str, int] = {}
    states: Dict[str, int] = {}
    users = set()
    keys = set()
    for event in events:
        if count == 0:
            first_t = event.t
        last_t = event.t
        count += 1
        if event.phase is not None:
            phases[event.phase] = phases.get(event.phase, 0) + 1
        if event.state is not None:
            states[event.state] = states.get(event.state, 0) + 1
        if event.user is not None:
            users.add(event.user)
        if event.key is not None:
            keys.add(event.key)
    span = (last_t - first_t) if count > 1 else 0.0
    out: Dict[str, object] = {
        "name": meta.name,
        "seed": meta.seed,
        "events": count,
        "first_t": first_t,
        "last_t": last_t,
        "mean_rate": (count / span) if span > 0 else 0.0,
        "digest": trace_digest(path),
    }
    if meta.duration_seconds is not None:
        out["duration_seconds"] = meta.duration_seconds
    if phases:
        out["phases"] = dict(sorted(phases.items()))
    if states:
        out["session_states"] = dict(sorted(states.items()))
    if users:
        out["users"] = len(users)
    if keys:
        out["distinct_items"] = len(keys)
    return out
