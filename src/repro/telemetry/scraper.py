"""MetricsScraper: clock-agnostic sampling of the registry.

The scraper is a kernel process (one :class:`~repro.kernel.base.
ExecutionBackend` timeout per cadence tick), so the *same code path*
samples in virtual time under the DES and in wall time under
``python -m repro serve`` — and under ``AsyncioBackend(fast_forward=
True)`` the tick sequence is dispatched in exact DES order, which makes
the sampled series byte-identical across backends (pinned by the parity
tests).

Each tick reads every registry child through a *scrape plan* and
turns it into store points:

- **raw values** for every counter and gauge child;
- **recording rules** over the window since the previous tick:
  ``name:rate`` (per-second increase) for counters and histograms, and
  ``name:p50`` / ``name:p95`` / ``name:p99`` windowed latency quantiles
  from the histogram bucket deltas (the colon naming mirrors Prometheus
  recording-rule convention);
- **SLO burn rate** per configured window (``repro_slo_burn_rate``,
  labelled by window length) when an
  :class:`~repro.telemetry.slo.SloTracker` is attached;
- **threshold alerts** (:class:`~repro.telemetry.timeseries.AlertRule`)
  evaluated against the freshly recorded points, each exported as a
  0/1 ``alert:<name>`` series plus a transition log.

The plan holds one entry per registry child: the
:class:`~repro.telemetry.timeseries.SeriesBuffer` rings it writes and
its previous reading (a counter's value; a histogram's count and
cumulative buckets), which is what each window subtracts.  Families and
children are only ever added, so the plan is rebuilt only when
:attr:`MetricsRegistry.series_count` changes.  A rebuild keeps the
readings of existing children; a new child starts from zero, so its
first window is its full value.

Like the :class:`~repro.sim.monitor.Monitor` it is modelled on, the
scraper is strictly observational: sampling draws no randomness and
mutates no component state; its only event-loop interaction is the
zero-duration cadence wake-up, so enabled runs keep ``RunMetrics``
bit-identical (asserted by the observer-neutrality tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .registry import LabelPairs, MetricsRegistry, bucket_quantile, bucket_window
from .slo import SloTracker
from .timeseries import AlertRule, SeriesBuffer, TimeSeriesStore

__all__ = ["MetricsScraper"]

#: Default windowed-quantile recording rules (suffix, q).
DEFAULT_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


class _CounterEntry:
    """Plan entry of one counter child: the raw value and ``:rate``."""

    __slots__ = ("instrument", "raw", "rate", "previous")

    def __init__(self, instrument, raw: SeriesBuffer, rate: SeriesBuffer) -> None:
        self.instrument = instrument
        self.raw = raw
        self.rate = rate
        self.previous = 0.0

    def record(self, now: float, span: float) -> None:
        value = self.instrument.value
        self.raw.append(now, value)
        self.rate.append(now, (value - self.previous) / span if span > 0 else 0.0)
        self.previous = value


class _GaugeEntry:
    """Plan entry of one gauge child: the raw value only (a level)."""

    __slots__ = ("instrument", "raw")

    def __init__(self, instrument, raw: SeriesBuffer) -> None:
        self.instrument = instrument
        self.raw = raw

    def record(self, now: float, span: float) -> None:
        self.raw.append(now, self.instrument.value)


class _HistogramEntry:
    """Plan entry of one histogram child: ``:count``, ``:rate`` and the
    windowed quantiles."""

    __slots__ = ("instrument", "count", "rate", "quantiles",
                 "previous_count", "previous_buckets")

    def __init__(
        self,
        instrument,
        count: SeriesBuffer,
        rate: SeriesBuffer,
        quantiles: Sequence[Tuple[float, SeriesBuffer]],
    ) -> None:
        self.instrument = instrument
        self.count = count
        self.rate = rate
        self.quantiles = tuple(quantiles)
        self.previous_count = 0
        #: Cumulative count per bucket bound at the previous reading.
        self.previous_buckets: Dict[float, int] = {}

    def record(self, now: float, span: float) -> None:
        histogram = self.instrument
        count = histogram.count
        self.count.append(now, count)
        self.rate.append(
            now, (count - self.previous_count) / span if span > 0 else 0.0
        )
        if count == self.previous_count:
            # Nothing observed since the last reading: every windowed
            # bucket is 0, so every quantile is 0.0.
            for _, buffer in self.quantiles:
                buffer.append(now, 0.0)
            return
        cumulative = histogram.cumulative_buckets()
        windowed = bucket_window(cumulative, self.previous_buckets)
        for q, buffer in self.quantiles:
            buffer.append(now, bucket_quantile(windowed, q))
        self.previous_count = count
        self.previous_buckets = dict(cumulative)


class _AlertState:
    __slots__ = ("rule", "firing", "breach_since")

    def __init__(self, rule: AlertRule) -> None:
        self.rule = rule.validate()
        self.firing = False
        self.breach_since: Optional[float] = None


class MetricsScraper:
    """Samples every registry instrument on a fixed cadence."""

    def __init__(
        self,
        env,
        registry: MetricsRegistry,
        *,
        interval: float = 1.0,
        store: Optional[TimeSeriesStore] = None,
        capacity: int = 720,
        quantiles: Sequence[Tuple[str, float]] = DEFAULT_QUANTILES,
        slo: Optional[SloTracker] = None,
        alerts: Sequence[AlertRule] = (),
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.env = env
        self.registry = registry
        self.interval = interval
        self.store = store if store is not None else TimeSeriesStore(capacity=capacity)
        self.quantiles = tuple(quantiles)
        self.slo = slo
        self._alerts = [_AlertState(rule) for rule in alerts]
        #: Alert transitions: dicts of (alert, state, time, value).
        self.alert_log: List[Dict[str, object]] = []
        self.samples_taken = 0
        #: Plan entries in registry order, keyed by (family, labels).
        self._plan: Dict[Tuple[str, LabelPairs], object] = {}
        self._planned_series = -1
        #: (window, buffer) of each SLO burn-rate series, set with the plan.
        self._burn: List[Tuple[float, SeriesBuffer]] = []
        self._dropped: Optional[SeriesBuffer] = None
        self._prev_time = 0.0
        self._running = False
        # Same epoch guard as sim.monitor.Monitor: a sampler process
        # exits once its captured epoch goes stale, so stop() -> start()
        # never double-samples.
        self._epoch = 0

    # -- lifecycle ------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Begin cadence sampling (idempotent; restart-safe)."""
        if self._running:
            return
        self._running = True
        self._epoch += 1
        self.env.process(self._sampler(self._epoch))

    def stop(self) -> None:
        """Stop sampling; the pending wake-up becomes a no-op."""
        self._running = False

    def _sampler(self, epoch: int):
        while self._running and epoch == self._epoch:
            self.scrape()
            yield self.env.timeout(self.interval)

    # -- one tick -------------------------------------------------------------

    def scrape(self) -> None:
        """Take one sample of every instrument into the store."""
        now = self.env.now
        span = now - self._prev_time
        if self.registry.series_count != self._planned_series:
            self._rebuild_plan()
        for entry in self._plan.values():
            entry.record(now, span)
        for window_seconds, buffer in self._burn:
            buffer.append(now, self.slo.burn_rate(window_seconds, now))
        self._dropped.append(now, self.registry.dropped_series)
        self._evaluate_alerts(now)
        self.samples_taken += 1
        self._prev_time = now

    def _rebuild_plan(self) -> None:
        """One plan entry per registry child, in registry order.

        Entries of children already planned are kept, previous readings
        included; only a new child's entry starts from zero.  The SLO
        burn-rate and dropped-series buffers are looked up here too.
        """
        old = self._plan
        self._plan = {}
        store = self.store
        for name in self.registry.names:
            family = self.registry.family(name)
            for labelpairs, instrument in family.samples():
                key = (name, labelpairs)
                entry = old.get(key)
                if entry is None:
                    labels = dict(labelpairs) or None
                    if family.kind == "histogram":
                        entry = _HistogramEntry(
                            instrument,
                            store.series(f"{name}:count", labels),
                            store.series(f"{name}:rate", labels),
                            [(q, store.series(f"{name}:{suffix}", labels))
                             for suffix, q in self.quantiles],
                        )
                    elif family.kind == "counter":
                        entry = _CounterEntry(
                            instrument,
                            store.series(name, labels),
                            store.series(f"{name}:rate", labels),
                        )
                    else:
                        entry = _GaugeEntry(instrument, store.series(name, labels))
                self._plan[key] = entry
        self._planned_series = self.registry.series_count
        if self.slo is not None:
            self._burn = [
                (window_seconds, store.series(
                    "repro_slo_burn_rate", {"window": _format_window(window_seconds)}
                ))
                for window_seconds in self.slo.config.burn_windows_seconds
            ]
        self._dropped = store.series("repro_metrics_dropped_series_total")

    # -- alerts ---------------------------------------------------------------

    @property
    def alerts_firing(self) -> List[str]:
        """Names of alerts currently in the firing state."""
        return [state.rule.name for state in self._alerts if state.firing]

    def _evaluate_alerts(self, now: float) -> None:
        for state in self._alerts:
            rule = state.rule
            try:
                buffer = self.store.get(rule.series, dict(rule.labels) or None)
            except KeyError:
                continue  # watched series not produced (yet): no data
            last = buffer.last()
            if last is None:
                continue
            _, value = last
            if rule.breached(value):
                if state.breach_since is None:
                    state.breach_since = now
                should_fire = now - state.breach_since >= rule.for_seconds
                if should_fire and not state.firing:
                    state.firing = True
                    self.alert_log.append(
                        {"alert": rule.name, "state": "firing",
                         "time": now, "value": value}
                    )
            else:
                state.breach_since = None
                if state.firing:
                    state.firing = False
                    self.alert_log.append(
                        {"alert": rule.name, "state": "resolved",
                         "time": now, "value": value}
                    )
            self.store.record(
                f"alert:{rule.name}", now, 1.0 if state.firing else 0.0
            )


def _format_window(window_seconds: float) -> str:
    if window_seconds == int(window_seconds):
        return str(int(window_seconds))
    return repr(float(window_seconds))
