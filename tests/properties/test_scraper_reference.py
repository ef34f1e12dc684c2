"""Stateful test (hypothesis): ``MetricsScraper`` against a reference scraper.

The reference is the scrape algorithm written as plainly as possible:
each tick takes a full ``MetricsRegistry.snapshot()``, matches every
sample to the previous tick's by (name, sorted labels), subtracts
counter values and histogram cumulative buckets bound by bound (a bound
the previous tick lacks subtracts 0), and walks the windowed buckets
for each quantile.  It shares no windowing, quantile or alert code
with the scraper; the two meet only in the ``TimeSeriesStore`` API
they each write to.

Hypothesis drives one registry through counter increments, gauge sets,
callback views, histogram observations that open buckets below, between
and above the occupied ones, labelled children and whole families added
mid-run (past a small cardinality cap, so overflow children and dropped
series occur too), SLO completions, and scrapes at repeated and
advancing times across ``stop()``/``start()``.  Both scrapers write
their own store; after every scrape the two stores' JSONL exports and
alert logs must be equal.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.sim import Environment
from repro.telemetry import AlertRule, SloConfig
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.scraper import MetricsScraper
from repro.telemetry.slo import SloTracker
from repro.telemetry.timeseries import TimeSeriesStore

QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
CAPACITY = 16
MAX_CHILDREN = 3

#: Observations spanning many decades, with exact repeats, so new
#: buckets open below, between and above the occupied ones.
OBSERVATIONS = st.one_of(
    st.sampled_from([0.0, 1e-7, 0.001, 0.01, 0.03, 0.1, 0.5, 3.0, 250.0]),
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False),
)
STEPS = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 2.5, 3.0]),
    st.floats(min_value=0.01, max_value=6.0, allow_nan=False, allow_infinity=False),
)
LABEL_VALUES = st.sampled_from(["a", "b", "c", "d", "e"])

ALERTS = (
    AlertRule(name="busy", series="c0_total:rate", threshold=0.5),
    AlertRule(name="slow", series="h0:p99", threshold=0.05, for_seconds=2.0),
    AlertRule(name="low", series="g0", threshold=1.0, comparison="<"),
    AlertRule(name="burn", series="repro_slo_burn_rate", threshold=1.0,
              labels=(("window", "2.5"),)),
    AlertRule(name="labelled", series="h1:rate", threshold=0.0,
              labels=(("k", "b"),)),
    AlertRule(name="dropping", series="repro_metrics_dropped_series_total",
              threshold=0.0, for_seconds=1.0),
)


def _label_key(sample):
    return tuple(sorted(sample["labels"].items()))


def _window_quantile(buckets, q):
    if not buckets or buckets[-1][1] <= 0:
        return 0.0
    rank = q * buckets[-1][1]
    for le, running in buckets:
        if running >= rank:
            return le
    return buckets[-1][0]


def _window_label(seconds):
    return str(int(seconds)) if seconds == int(seconds) else repr(float(seconds))


class ReferenceScraper:
    """Snapshot, delta by sorted label key, quantile walk: one tick each."""

    def __init__(self, registry, slo, alerts):
        self.registry = registry
        self.slo = slo
        self.store = TimeSeriesStore(capacity=CAPACITY)
        self.alerts = [{"rule": rule, "firing": False, "since": None} for rule in alerts]
        self.alert_log = []
        self.previous = None
        self.previous_time = 0.0

    def scrape(self, now):
        snapshot = self.registry.snapshot(at_time=now)
        earlier = {}
        if self.previous is not None:
            for metric in self.previous.metrics:
                for sample in metric["samples"]:
                    earlier[(metric["name"], _label_key(sample))] = sample
        span = now - self.previous_time
        record = self.store.record
        for metric in snapshot.metrics:
            name, kind = metric["name"], metric["kind"]
            for sample in metric["samples"]:
                labels = sample["labels"] or None
                prev = earlier.get((name, _label_key(sample)))
                if kind == "histogram":
                    count, buckets = sample["count"], sample["buckets"]
                    if prev is not None:
                        count -= prev["count"]
                        before = dict(prev["buckets"])
                        buckets = [(le, n - before.get(le, 0)) for le, n in buckets]
                    record(f"{name}:count", now, sample["count"], labels)
                    record(f"{name}:rate", now, count / span if span > 0 else 0.0, labels)
                    for suffix, q in QUANTILES:
                        record(f"{name}:{suffix}", now, _window_quantile(buckets, q), labels)
                elif kind == "counter":
                    value = sample["value"]
                    window = value if prev is None else value - prev["value"]
                    record(name, now, value, labels)
                    record(f"{name}:rate", now, window / span if span > 0 else 0.0, labels)
                else:
                    record(name, now, sample["value"], labels)
        for seconds in self.slo.config.burn_windows_seconds:
            record("repro_slo_burn_rate", now, self.slo.burn_rate(seconds, now),
                   {"window": _window_label(seconds)})
        dropped = sum(self.registry.family(name).dropped_series for name in self.registry.names)
        record("repro_metrics_dropped_series_total", now, dropped)
        self._alerts(now)
        self.previous = snapshot
        self.previous_time = now

    def _alerts(self, now):
        for state in self.alerts:
            rule = state["rule"]
            try:
                buffer = self.store.get(rule.series, dict(rule.labels) or None)
            except KeyError:
                continue
            if not buffer.values:
                continue
            value = buffer.values[-1]
            breached = value > rule.threshold if rule.comparison == ">" else (
                value < rule.threshold)
            if breached:
                if state["since"] is None:
                    state["since"] = now
                if now - state["since"] >= rule.for_seconds and not state["firing"]:
                    state["firing"] = True
                    self.alert_log.append(
                        {"alert": rule.name, "state": "firing", "time": now, "value": value})
            else:
                state["since"] = None
                if state["firing"]:
                    state["firing"] = False
                    self.alert_log.append(
                        {"alert": rule.name, "state": "resolved", "time": now,
                         "value": value})
            self.store.record(f"alert:{rule.name}", now, 1.0 if state["firing"] else 0.0)


class ScraperMatchesReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.registry = MetricsRegistry(max_series_per_family=MAX_CHILDREN)
        self.slo = SloTracker(SloConfig(latency_objective_seconds=0.05, target=0.9,
                                        burn_windows_seconds=(1.0, 2.5)))
        self.scraper = MetricsScraper(
            self.env, self.registry, interval=1.0, capacity=CAPACITY,
            quantiles=QUANTILES, slo=self.slo, alerts=ALERTS,
        )
        self.reference = ReferenceScraper(self.registry, self.slo, ALERTS)
        self.scrapes = 0
        scrape = self.scraper.scrape

        def scrape_both():
            scrape()
            self.reference.scrape(self.env.now)
            self.scrapes += 1
            self.check()

        # The cadence process and explicit calls both go through here.
        self.scraper.scrape = scrape_both
        self.counters = []  # families or bare counters
        self.gauges = []
        self.histograms = []
        self.cells = []  # mutable values behind callback views

    # -- instruments ----------------------------------------------------------

    @initialize(labelled=st.booleans())
    def first_families(self, labelled):
        self.add_counter(labelled)
        self.add_histogram(labelled)
        self.add_gauge()

    @rule(labelled=st.booleans())
    def add_counter(self, labelled):
        name = f"c{len(self.counters)}_total"
        labelnames = ("k",) if labelled else ()
        self.counters.append(self.registry.counter(name, "count", labelnames))

    @rule(labelled=st.booleans())
    def add_histogram(self, labelled):
        name = f"h{len(self.histograms)}"
        labelnames = ("k",) if labelled else ()
        self.histograms.append(self.registry.histogram(
            name, "latency", labelnames, min_value=1e-4, buckets_per_decade=4))

    @rule()
    def add_gauge(self):
        self.gauges.append(self.registry.gauge(f"g{len(self.gauges)}", "level"))

    @rule(kind=st.sampled_from(["counter", "gauge"]), label=LABEL_VALUES)
    def add_callback_view(self, kind, label):
        cell = {"value": 0.0}
        self.cells.append(cell)
        register = self.registry.counter_fn if kind == "counter" else self.registry.gauge_fn
        try:
            register(f"view_{kind}", "view", lambda: cell["value"], k=label)
        except ValueError:
            pass  # this label is already registered

    @staticmethod
    def _child(instrument, label):
        if hasattr(instrument, "labelnames"):
            return instrument.labels(k=label)
        return instrument

    @rule(which=st.integers(0, 20), label=LABEL_VALUES,
          by=st.sampled_from([0.0, 1.0, 2.0, 0.5, 1e6]))
    def inc_counter(self, which, label, by):
        self._child(self.counters[which % len(self.counters)], label).inc(by)

    @rule(which=st.integers(0, 20), value=st.floats(-10.0, 10.0, allow_nan=False))
    def set_gauge(self, which, value):
        self.gauges[which % len(self.gauges)].set(value)

    @rule(which=st.integers(0, 20), by=st.sampled_from([0.0, 1.0, 3.5]))
    def move_view(self, which, by):
        if self.cells:
            self.cells[which % len(self.cells)]["value"] += by

    @rule(which=st.integers(0, 20), label=LABEL_VALUES,
          values=st.lists(OBSERVATIONS, min_size=1, max_size=6))
    def observe(self, which, label, values):
        child = self._child(self.histograms[which % len(self.histograms)], label)
        for value in values:
            child.observe(value)

    @rule(latency=st.sampled_from([0.01, 0.2]), ok=st.booleans())
    def slo_completion(self, latency, ok):
        self.slo.observe(latency, self.env.now, ok=ok)

    # -- time and scrapes -----------------------------------------------------

    @rule(step=STEPS)
    def advance(self, step):
        self.env.run(until=self.env.now + step)

    @rule()
    def scrape_now(self):
        self.scraper.scrape()

    @rule()
    def stop(self):
        self.scraper.stop()

    @rule()
    def start(self):
        self.scraper.start()

    # -- the contract -----------------------------------------------------------

    def check(self):
        assert self.scraper.store.to_jsonl() == self.reference.store.to_jsonl()
        assert self.scraper.alert_log == self.reference.alert_log

    @invariant()
    def agrees_with_reference(self):
        self.check()
        assert self.scraper.samples_taken == self.scrapes
        families = [self.registry.family(name) for name in self.registry.names]
        assert self.registry.series_count == sum(len(f.samples()) for f in families)


ScraperMatchesReference.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
test_scraper_matches_reference = pytest.mark.filterwarnings(
    "ignore:metric family:RuntimeWarning"
)(ScraperMatchesReference.TestCase)


def test_new_middle_bucket_keeps_the_reference_defect():
    """A bucket that first opens between two occupied ones over-counts.

    Both scrapers subtract the previous cumulative count at the same
    bound and 0 at a new bound, so the second window's p99 reads the
    new 0.03 bucket's bound (about 0.0316) where the window's largest
    observation is 0.1.  The defect is pinned here so that fixing it is
    a deliberate change to the scraped output.
    """
    machine = ScraperMatchesReference()
    machine.add_histogram(labelled=False)
    for value in [0.01] * 5 + [0.1] * 3:
        machine.histograms[0].observe(value)
    machine.scrape_now()
    machine.histograms[0].observe(0.03)
    machine.histograms[0].observe(0.1)
    machine.scrape_now()
    machine.agrees_with_reference()
    p99 = list(machine.scraper.store.get("h0:p99").values)
    assert p99[-1] == pytest.approx(10 ** -1.5)
    assert p99[-1] != pytest.approx(0.1)
