"""MetricsRegistry: named Counter/Gauge/Histogram instruments with labels.

The registry is the single place a run's counters live.  Components
publish *views* over their existing ledgers (callback-backed instruments
read the live value at collection time, so registering a metric never
perturbs the simulation), while per-request quantities (latencies, span
durations) stream into log-bucketed histograms that answer p50/p90/p99/
p99.9 without storing every sample.

Design notes:

- **Labels**: an instrument created with ``labelnames`` is a family;
  ``family.labels(gpu="0")`` returns (and memoizes) the child.  Without
  labelnames the registry hands back the bare instrument directly.
- **Histogram buckets** are geometric (HDR-style): ``buckets_per_decade``
  equal-ratio bins from ``min_value`` up, so relative quantile error is
  bounded by one bucket ratio (~12% at the default 20/decade) at O(1)
  memory per observed decade.
- **Snapshots** are plain frozen dicts; :meth:`MetricsRegistry.snapshot`
  and :meth:`RegistrySnapshot.delta` give windowed views, i.e. the
  time-series-of-percentiles a dashboard plots.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Exemplar",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "RegistrySnapshot",
    "OVERFLOW_LABEL_VALUE",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelPairs = Tuple[Tuple[str, str], ...]

#: Label value assigned to the shared spill-over child once a family
#: hits its cardinality cap (see :class:`MetricFamily`).
OVERFLOW_LABEL_VALUE = "_overflow_"

#: An exemplar pinned to a histogram bucket: (trace_id, value, timestamp).
Exemplar = Tuple[str, float, Optional[float]]


class _Totals:
    """Children and dropped series across one registry's families."""

    __slots__ = ("series", "dropped")

    def __init__(self) -> None:
        self.series = 0
        self.dropped = 0


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class Counter:
    """Monotonic count; either incremented or backed by a callback."""

    kind = "counter"

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._value = 0.0
        self._fn = fn

    def inc(self, by: float = 1.0) -> None:
        if self._fn is not None:
            raise RuntimeError("callback-backed counters cannot be incremented")
        if by < 0:
            raise ValueError(f"counter increments must be >= 0, got {by}")
        self._value += by

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Gauge:
    """A settable level; either managed or backed by a callback."""

    kind = "gauge"

    def __init__(self, fn: Optional[Callable[[], float]] = None) -> None:
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise RuntimeError("callback-backed gauges cannot be set")
        self._value = float(value)

    def inc(self, by: float = 1.0) -> None:
        if self._fn is not None:
            raise RuntimeError("callback-backed gauges cannot be incremented")
        self._value += by

    def dec(self, by: float = 1.0) -> None:
        self.inc(-by)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Streaming log-bucketed histogram with percentile estimation.

    Buckets are geometric: bucket ``k`` covers
    ``(min_value * ratio**(k-1), min_value * ratio**k]`` with
    ``ratio = 10 ** (1 / buckets_per_decade)``; values at or below
    ``min_value`` land in bucket 0.  Storage is a sparse dict, so memory
    is O(decades x buckets_per_decade), not O(samples).
    """

    kind = "histogram"

    def __init__(self, min_value: float = 1e-6, buckets_per_decade: int = 20) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be positive, got {min_value}")
        if buckets_per_decade < 1:
            raise ValueError(f"buckets_per_decade must be >= 1, got {buckets_per_decade}")
        self.min_value = min_value
        self.buckets_per_decade = buckets_per_decade
        self._counts: Dict[int, int] = {}
        self._exemplars: Dict[int, Exemplar] = {}
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        # ceil of log-ratio position: the smallest k with bound(k) >= value.
        return max(0, math.ceil(
            math.log10(value / self.min_value) * self.buckets_per_decade - 1e-9
        ))

    def bound(self, index: int) -> float:
        """Upper (inclusive) bound of bucket ``index``."""
        return self.min_value * 10.0 ** (index / self.buckets_per_decade)

    def observe(
        self,
        value: float,
        exemplar: Optional[str] = None,
        exemplar_time: Optional[float] = None,
    ) -> None:
        """Record ``value``; optionally pin an exemplar to its bucket.

        ``exemplar`` is an opaque reference (by convention a trace id)
        kept per bucket, last-writer-wins — the OpenMetrics model that
        lets a dashboard jump from a latency bucket to one concrete
        trace that landed there.
        """
        if value < 0:
            raise ValueError(f"histogram observations must be >= 0, got {value}")
        index = self._index(value)
        self._counts[index] = self._counts.get(index, 0) + 1
        if exemplar is not None:
            self._exemplars[index] = (exemplar, float(value), exemplar_time)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place and return self.

        Bucket geometry must match exactly — the merged state is then
        indistinguishable from having observed every sample in one
        global histogram, so quantiles are *identical* (not merely
        close) to the global ones.  This is what makes per-shard
        histograms safe to aggregate cluster-wide.
        """
        if (other.min_value, other.buckets_per_decade) != (
            self.min_value,
            self.buckets_per_decade,
        ):
            raise ValueError(
                "cannot merge histograms with different bucket geometry: "
                f"({self.min_value}, {self.buckets_per_decade}) vs "
                f"({other.min_value}, {other.buckets_per_decade})"
            )
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count
        self._exemplars.update(other._exemplars)
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        return self

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def value(self) -> float:
        return float(self.count)

    def buckets(self) -> List[Tuple[float, int]]:
        """Sorted (upper_bound, count) pairs of the occupied buckets."""
        return [(self.bound(i), self._counts[i]) for i in sorted(self._counts)]

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative (le, count) pairs."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in self.buckets():
            running += count
            out.append((bound, running))
        return out

    def exemplars(self) -> List[Tuple[float, Exemplar]]:
        """Sorted (upper_bound, exemplar) pairs for buckets that have one."""
        return [(self.bound(i), self._exemplars[i]) for i in sorted(self._exemplars)]

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1].

        Linear interpolation inside the containing bucket; exact min and
        max are tracked, so q=0/q=1 are exact and the error anywhere is
        at most one bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            raise ValueError("quantile of an empty histogram")
        assert self.min is not None and self.max is not None
        if q == 0.0:
            return self.min
        rank = q * self.count
        running = 0
        for index in sorted(self._counts):
            count = self._counts[index]
            if running + count >= rank:
                upper = min(self.bound(index), self.max)
                lower = self.bound(index - 1) if index > 0 else 0.0
                lower = max(lower, self.min if running == 0 else lower)
                fraction = (rank - running) / count
                return min(self.max, lower + (upper - lower) * fraction)
            running += count
        return self.max

    def percentiles(self) -> Dict[str, float]:
        """The standard reporting set: p50/p90/p99/p99.9."""
        if self.count == 0:
            return {"p50": 0.0, "p90": 0.0, "p99": 0.0, "p99.9": 0.0}
        return {
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "p99.9": self.quantile(0.999),
        }


class MetricFamily:
    """All children of one metric name (one per label combination)."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        factory: Callable[[], object],
        max_children: Optional[int] = None,
        totals: Optional[_Totals] = None,
    ) -> None:
        self.name = _check_name(name)
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(labelnames)
        for label in self.labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self._factory = factory
        self._children: Dict[LabelPairs, object] = {}
        #: Cardinality cap: at most this many label combinations before
        #: new ones spill into a shared ``_overflow_`` child (None = no cap).
        self.max_children = max_children
        #: Series dropped (or spilled) because the cap was hit.
        self.dropped_series = 0
        self._warned_overflow = False
        #: Running totals of the owning registry (its own when standalone).
        self._totals = totals if totals is not None else _Totals()

    def _overflow_key(self) -> LabelPairs:
        return tuple((name, OVERFLOW_LABEL_VALUE) for name in self.labelnames)

    def _at_capacity(self, key: LabelPairs) -> bool:
        if self.max_children is None or key in self._children:
            return False
        if key == self._overflow_key():
            return False  # the spill-over child itself is always admitted
        return len(self._children) >= self.max_children

    def _note_overflow(self) -> None:
        self.dropped_series += 1
        self._totals.dropped += 1
        if not self._warned_overflow:
            self._warned_overflow = True
            warnings.warn(
                f"metric family {self.name!r} hit its label-cardinality cap "
                f"({self.max_children} series); further label combinations "
                f"collapse into {OVERFLOW_LABEL_VALUE!r} — raise "
                "max_series_per_family if every series is wanted",
                RuntimeWarning,
                stacklevel=4,
            )

    def labels(self, **labelvalues: str):
        """The child instrument for one label-value combination.

        Once ``max_children`` distinct combinations exist, further new
        combinations share one spill-over child labelled
        ``{name: "_overflow_"}`` so unbounded label values (request
        keys, 10k node ids) cannot grow memory without bound.
        """
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key: LabelPairs = tuple((name, str(labelvalues[name])) for name in self.labelnames)
        if self._at_capacity(key):
            self._note_overflow()
            key = self._overflow_key()
        child = self._children.get(key)
        if child is None:
            child = self._factory()
            self._children[key] = child
            self._totals.series += 1
        return child

    def add_callback_child(self, fn: Callable[[], float], **labelvalues: str):
        """Register a callback-backed child (views over live counters).

        Returns ``None`` (and counts a dropped series) once the family
        is at its cardinality cap: callback views cannot be meaningfully
        merged into a spill-over child, so they are simply not recorded.
        """
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key: LabelPairs = tuple((name, str(labelvalues[name])) for name in self.labelnames)
        if key in self._children:
            raise ValueError(f"metric {self.name!r}{dict(key)} already registered")
        if self._at_capacity(key):
            self._note_overflow()
            return None
        child = Counter(fn) if self.kind == "counter" else Gauge(fn)
        self._children[key] = child
        self._totals.series += 1
        return child

    def samples(self) -> List[Tuple[LabelPairs, object]]:
        return list(self._children.items())

    def __repr__(self) -> str:
        return f"<MetricFamily {self.name} {self.kind} children={len(self._children)}>"


#: Default per-family label-cardinality cap (see MetricsRegistry).
DEFAULT_MAX_SERIES_PER_FAMILY = 4096


class MetricsRegistry:
    """Central, ordered registry of named instruments.

    ``max_series_per_family`` caps label cardinality per family (spilling
    into an ``_overflow_`` child / dropping callback views beyond it) so
    per-node or per-key labels at 10k-node cluster scale cannot blow
    memory; ``None`` removes the cap.
    """

    def __init__(
        self, max_series_per_family: Optional[int] = DEFAULT_MAX_SERIES_PER_FAMILY
    ) -> None:
        if max_series_per_family is not None and max_series_per_family < 1:
            raise ValueError(
                f"max_series_per_family must be >= 1, got {max_series_per_family}"
            )
        self.max_series_per_family = max_series_per_family
        self._families: Dict[str, MetricFamily] = {}
        self._totals = _Totals()

    @property
    def series_count(self) -> int:
        """Children (label combinations) across all families.

        Families and children are only ever added, so a change in this
        count is how a reader notices the registry has grown.
        """
        return self._totals.series

    @property
    def dropped_series(self) -> int:
        """Total series dropped/spilled across all families (cap hits)."""
        return self._totals.dropped

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    @property
    def names(self) -> List[str]:
        return list(self._families)

    def family(self, name: str) -> MetricFamily:
        try:
            return self._families[name]
        except KeyError:
            known = ", ".join(sorted(self._families))
            raise KeyError(f"unknown metric {name!r}; known: {known}") from None

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        factory: Callable[[], object],
    ):
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}"
                )
        else:
            family = MetricFamily(
                name, kind, help_text, labelnames, factory,
                max_children=self.max_series_per_family, totals=self._totals,
            )
            self._families[name] = family
        if family.labelnames:
            return family
        return family.labels()

    # -- instrument constructors ---------------------------------------------

    def counter(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()):
        """A monotonic counter (family when ``labelnames`` given)."""
        return self._register(name, "counter", help_text, labelnames, Counter)

    def gauge(self, name: str, help_text: str = "", labelnames: Sequence[str] = ()):
        """A settable gauge (family when ``labelnames`` given)."""
        return self._register(name, "gauge", help_text, labelnames, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        min_value: float = 1e-6,
        buckets_per_decade: int = 20,
    ):
        """A streaming log-bucketed histogram (family when labelled)."""
        factory = lambda: Histogram(min_value, buckets_per_decade)  # noqa: E731
        return self._register(name, "histogram", help_text, labelnames, factory)

    def counter_fn(self, name: str, help_text: str, fn: Callable[[], float],
                   **labels: str) -> None:
        """Register a counter *view* reading ``fn()`` at collection time."""
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, "counter", help_text, tuple(sorted(labels)),
                                  Counter, max_children=self.max_series_per_family,
                                  totals=self._totals)
            self._families[name] = family
        family.add_callback_child(fn, **labels)

    def gauge_fn(self, name: str, help_text: str, fn: Callable[[], float],
                 **labels: str) -> None:
        """Register a gauge *view* reading ``fn()`` at collection time."""
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, "gauge", help_text, tuple(sorted(labels)),
                                  Gauge, max_children=self.max_series_per_family,
                                  totals=self._totals)
            self._families[name] = family
        family.add_callback_child(fn, **labels)

    # -- collection -----------------------------------------------------------

    def snapshot(self, at_time: Optional[float] = None) -> "RegistrySnapshot":
        """Frozen point-in-time values of every instrument."""
        metrics: List[dict] = []
        for family in self._families.values():
            samples = []
            for labelpairs, instrument in family.samples():
                sample: Dict[str, object] = {"labels": dict(labelpairs)}
                if family.kind == "histogram":
                    histogram: Histogram = instrument  # type: ignore[assignment]
                    sample.update(
                        count=histogram.count,
                        sum=histogram.sum,
                        buckets=histogram.cumulative_buckets(),
                        percentiles=histogram.percentiles(),
                    )
                    exemplars = histogram.exemplars()
                    if exemplars:
                        sample["exemplars"] = exemplars
                else:
                    sample["value"] = instrument.value  # type: ignore[union-attr]
                samples.append(sample)
            metrics.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "samples": samples,
                }
            )
        return RegistrySnapshot(at_time=at_time, metrics=metrics)

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format of the current values."""
        from .exposition import snapshot_to_prometheus_text

        return snapshot_to_prometheus_text(self.snapshot())

    def to_json(self, indent: int = 2) -> str:
        """JSON exposition of the current values."""
        from .exposition import snapshot_to_json

        return snapshot_to_json(self.snapshot(), indent=indent)


class RegistrySnapshot:
    """Immutable registry state, optionally stamped with a sim time."""

    def __init__(self, at_time: Optional[float], metrics: List[dict]) -> None:
        self.at_time = at_time
        self.metrics = metrics

    def __repr__(self) -> str:
        stamp = "" if self.at_time is None else f" t={self.at_time:.3f}"
        return f"<RegistrySnapshot{stamp} metrics={len(self.metrics)}>"

    def metric(self, name: str) -> dict:
        for metric in self.metrics:
            if metric["name"] == name:
                return metric
        raise KeyError(f"snapshot has no metric {name!r}")

    def delta(self, earlier: "RegistrySnapshot") -> "RegistrySnapshot":
        """Windowed view: this snapshot minus an earlier one.

        Counters and histogram counts/sums/buckets subtract; gauges keep
        their later value (a level, not a flow).  This is how a
        time-series of windowed percentiles is produced from periodic
        snapshots.
        """
        earlier_by_name = {metric["name"]: metric for metric in earlier.metrics}
        metrics: List[dict] = []
        for metric in self.metrics:
            base = earlier_by_name.get(metric["name"])
            if base is None or metric["kind"] == "gauge":
                metrics.append(metric)
                continue
            base_samples = {
                tuple(sorted(sample["labels"].items())): sample
                for sample in base["samples"]
            }
            samples = []
            for sample in metric["samples"]:
                key = tuple(sorted(sample["labels"].items()))
                prev = base_samples.get(key)
                if prev is None:
                    samples.append(sample)
                    continue
                if metric["kind"] == "histogram":
                    buckets = bucket_window(sample["buckets"], dict(prev["buckets"]))
                    windowed = {
                        "labels": sample["labels"],
                        "count": sample["count"] - prev["count"],
                        "sum": sample["sum"] - prev["sum"],
                        "buckets": buckets,
                        "percentiles": {
                            label: bucket_quantile(buckets, q)
                            for label, q in _PERCENTILES
                        },
                    }
                    if "exemplars" in sample:
                        # Exemplars are point-in-time references, not
                        # flows: keep the later snapshot's.
                        windowed["exemplars"] = sample["exemplars"]
                    samples.append(windowed)
                else:
                    samples.append(
                        {
                            "labels": sample["labels"],
                            "value": sample["value"] - prev["value"],
                        }
                    )
            metrics.append({**metric, "samples": samples})
        return RegistrySnapshot(at_time=self.at_time, metrics=metrics)


#: The reporting set of windowed percentiles in :meth:`RegistrySnapshot.delta`.
_PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p99.9", 0.999))


def bucket_window(
    cumulative: List[Tuple[float, int]], earlier: Dict[float, int]
) -> List[Tuple[float, int]]:
    """Cumulative (le, count) pairs minus an earlier reading's, bound by bound.

    ``earlier`` maps each bound to its cumulative count.  A bound the
    earlier reading lacks subtracts 0, so a bucket that first appears
    between older ones over-counts the window: a known defect, kept
    because fixing it changes every pinned scraped series.
    """
    return [(le, count - earlier.get(le, 0)) for le, count in cumulative]


def bucket_quantile(cumulative: List[Tuple[float, int]], q: float) -> float:
    """Upper-bound quantile estimate from cumulative (le, count) pairs.

    The bound of the first bucket whose running count reaches ``q`` of
    the last one; 0.0 for an empty window.
    """
    if not cumulative or cumulative[-1][1] <= 0:
        return 0.0
    rank = q * cumulative[-1][1]
    for le, running in cumulative:
        if running >= rank:
            return le
    return cumulative[-1][0]
