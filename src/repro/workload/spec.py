"""The unified ``Workload`` spec: one object describing request traffic.

Every runner entry point (``run_experiment``, ``run_open_loop``,
``run_fleet_experiment``, and ``run_face_pipeline``, which builds an
``ExperimentConfig`` for ``run_experiment``) accepts a
:class:`Workload` instead of scattered ``rate=``/``duration=``/dataset
kwargs.  A workload bundles:

- **arrivals** — a composable rate envelope
  (:mod:`repro.workload.arrivals`) turned into a non-homogeneous
  Poisson process by thinning;
- **dataset** — what each request carries, including
  :class:`~repro.vision.datasets.ZipfDataset` popularity skew;
- **sessions** — an optional per-user Markov session model
  (:mod:`repro.workload.sessions`), in which case arrivals are
  *session starts* and requests cluster per user;
- **duration_seconds** — how long the traffic lasts (``None`` =
  unbounded: the run's completion targets stop it);
- **trace_path** — a recorded trace to replay instead of synthesizing.

The closed-loop runner (``run_experiment``, for any deployment its
config names) uses the dataset/popularity component — concurrency, not
an arrival process, sets its load.  Open-loop runners (``run_open_loop``,
``run_fleet_experiment``) draw full arrival timing from the workload.

``Workload.constant(rate)`` resolves to a
:class:`~repro.workload.source.ConstantSource`, which draws one
exponential gap per arrival instead of thinning's two draws per
candidate, so constant-rate seeds reproduce.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Sequence, Tuple

from ..sim.rng import RandomStreams
from ..vision.datasets import (
    Dataset,
    FixedImageDataset,
    ImageNetLikeDataset,
    VideoFrameDataset,
    ZipfDataset,
    reference_dataset,
)
from ..vision.image import REFERENCE_IMAGES
from .arrivals import (
    DAY_SECONDS,
    ArrivalModel,
    ConstantRate,
    DiurnalCurve,
    FlashCrowd,
    Region,
    RegionalMix,
    model_from_dict,
)
from .sessions import MarkovSessionModel
from .source import ArrivalSource, ConstantSource, ReplaySource, SyntheticSource
from .trace import TraceEvent, TraceMeta, read_trace, read_trace_meta, write_trace

__all__ = [
    "Workload",
    "synthesize_trace",
    "dataset_to_dict",
    "dataset_from_dict",
]


def dataset_to_dict(dataset: Dataset) -> Dict[str, object]:
    """JSON-safe dataset recipe (round-trips through trace headers).

    Covers the datasets a workload is built from; anything else is
    recorded by name only and must be supplied explicitly at replay.
    """
    if isinstance(dataset, ZipfDataset):
        return {
            "kind": "ZipfDataset",
            "base": dataset_to_dict(dataset.base),
            "catalog_size": dataset.catalog_size,
            "skew": dataset.skew,
            "seed": dataset.seed,
        }
    if isinstance(dataset, ImageNetLikeDataset):
        return {"kind": "ImageNetLikeDataset"}
    if isinstance(dataset, VideoFrameDataset):
        return {"kind": "VideoFrameDataset", "width": dataset.width,
                "height": dataset.height, "quality": dataset.quality}
    if isinstance(dataset, FixedImageDataset):
        for size, image in REFERENCE_IMAGES.items():
            if dataset.image is image:
                return {"kind": "reference", "size": size}
    return {"kind": "opaque", "name": dataset.name}


def dataset_from_dict(data: Optional[Dict[str, object]]) -> Optional[Dataset]:
    """Rebuild a dataset from :func:`dataset_to_dict` output (or ``None``
    when the recipe is missing or opaque)."""
    if not data:
        return None
    kind = data.get("kind")
    if kind == "ZipfDataset":
        base = dataset_from_dict(data.get("base"))
        if base is None:
            return None
        return ZipfDataset(
            base,
            catalog_size=int(data["catalog_size"]),
            skew=float(data["skew"]),
            seed=int(data.get("seed", 0)),
        )
    if kind == "ImageNetLikeDataset":
        return ImageNetLikeDataset()
    if kind == "VideoFrameDataset":
        return VideoFrameDataset(
            width=int(data.get("width", 1920)),
            height=int(data.get("height", 1080)),
            quality=int(data.get("quality", 80)),
        )
    if kind == "reference":
        return reference_dataset(str(data["size"]))
    return None


@dataclass(frozen=True, kw_only=True)
class Workload:
    """One request-traffic description shared by every runner."""

    name: str = "workload"
    #: Rate envelope for synthesized traffic (session starts when a
    #: session model is attached).  Advisory for trace replay.
    arrivals: Optional[ArrivalModel] = None
    #: Request payload source; ``None`` lets the runner pick its
    #: default (medium reference image, video frames, ...).
    dataset: Optional[Dataset] = None
    #: Per-user session model layered under the arrival process.
    sessions: Optional[MarkovSessionModel] = None
    #: Traffic horizon; ``None`` runs until the experiment stops it.
    duration_seconds: Optional[float] = None
    #: Recorded trace to replay instead of synthesizing arrivals.
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.arrivals is None and self.trace_path is None:
            raise ValueError("a Workload needs arrivals or a trace_path")
        if self.trace_path is not None and self.sessions is not None:
            raise ValueError(
                "sessions are baked into a trace at synthesis time; "
                "a replay workload cannot take a session model")
        if self.duration_seconds is not None and self.duration_seconds <= 0:
            raise ValueError(
                f"duration_seconds must be positive, got {self.duration_seconds}")
        if self.arrivals is not None:
            self.arrivals.validate()

    def validate(self) -> "Workload":
        """Re-run field validation (useful after deserialization)."""
        self.__post_init__()
        return self

    def with_overrides(self, **kwargs) -> "Workload":
        """Copy with fields replaced."""
        return replace(self, **kwargs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(
        cls,
        rate: float,
        *,
        dataset: Optional[Dataset] = None,
        duration_seconds: Optional[float] = None,
        name: Optional[str] = None,
    ) -> "Workload":
        """Homogeneous Poisson traffic at ``rate`` requests/second."""
        return cls(
            name=name or f"constant-{rate:g}",
            arrivals=ConstantRate(rate),
            dataset=dataset,
            duration_seconds=duration_seconds,
        )

    @classmethod
    def diurnal(
        cls,
        mean_rate: float,
        *,
        swing: float = 0.5,
        period_seconds: float = DAY_SECONDS,
        phase_offset_seconds: float = 0.0,
        dataset: Optional[Dataset] = None,
        sessions: Optional[MarkovSessionModel] = None,
        duration_seconds: Optional[float] = None,
        name: Optional[str] = None,
    ) -> "Workload":
        """Day/night sinusoidal traffic."""
        return cls(
            name=name or f"diurnal-{mean_rate:g}",
            arrivals=DiurnalCurve(
                mean_rate, swing=swing, period_seconds=period_seconds,
                phase_offset_seconds=phase_offset_seconds),
            dataset=dataset,
            sessions=sessions,
            duration_seconds=duration_seconds,
        )

    @classmethod
    def flash_crowd(
        cls,
        mean_rate: float,
        *,
        bursts: Sequence[Tuple[float, float, float]],
        ramp_seconds: float = 0.0,
        swing: float = 0.0,
        period_seconds: float = DAY_SECONDS,
        dataset: Optional[Dataset] = None,
        sessions: Optional[MarkovSessionModel] = None,
        duration_seconds: Optional[float] = None,
        name: Optional[str] = None,
    ) -> "Workload":
        """Burst windows (``(start, duration, amplitude)``) on a constant
        or diurnal base."""
        base: ArrivalModel
        if swing > 0:
            base = DiurnalCurve(mean_rate, swing=swing,
                                period_seconds=period_seconds)
        else:
            base = ConstantRate(mean_rate)
        return cls(
            name=name or f"flash-{mean_rate:g}",
            arrivals=FlashCrowd(base, bursts, ramp_seconds=ramp_seconds),
            dataset=dataset,
            sessions=sessions,
            duration_seconds=duration_seconds,
        )

    @classmethod
    def regional(
        cls,
        mean_rate: float,
        *,
        regions: Sequence[Region],
        swing: float = 0.5,
        period_seconds: float = DAY_SECONDS,
        dataset: Optional[Dataset] = None,
        sessions: Optional[MarkovSessionModel] = None,
        duration_seconds: Optional[float] = None,
        name: Optional[str] = None,
    ) -> "Workload":
        """Per-region time-shifted copies of one diurnal curve."""
        return cls(
            name=name or f"regional-{mean_rate:g}",
            arrivals=RegionalMix(
                DiurnalCurve(mean_rate, swing=swing,
                             period_seconds=period_seconds),
                regions),
            dataset=dataset,
            sessions=sessions,
            duration_seconds=duration_seconds,
        )

    @classmethod
    def replay(
        cls,
        trace_path: str,
        *,
        dataset: Optional[Dataset] = None,
        name: Optional[str] = None,
    ) -> "Workload":
        """Replay a recorded trace; the header's embedded workload
        recipe supplies the dataset (and advisory rate envelope) unless
        overridden."""
        meta = read_trace_meta(trace_path)
        header = meta.workload or {}
        arrivals = model_from_dict(header.get("arrivals") or {})
        if dataset is None:
            dataset = dataset_from_dict(header.get("dataset"))
        return cls(
            name=name or f"replay-{meta.name}",
            arrivals=arrivals,
            dataset=dataset,
            duration_seconds=meta.duration_seconds,
            trace_path=trace_path,
        )

    # -- resolution ----------------------------------------------------------

    @property
    def is_replay(self) -> bool:
        return self.trace_path is not None

    def resolved_dataset(self, default: Optional[Dataset] = None) -> Dataset:
        """The dataset requests draw from, after runner defaults."""
        if self.dataset is not None:
            return self.dataset
        if default is not None:
            return default
        return reference_dataset("medium")

    def offered_rate_hint(self) -> float:
        """Best-effort mean request rate (fleet sizing, result labels)."""
        if self.arrivals is None:
            return 0.0
        if isinstance(self.arrivals, ConstantRate) and self.sessions is None:
            return self.arrivals.rate
        horizon = self.duration_seconds
        if horizon is None:
            horizon = getattr(self.arrivals, "period_seconds", None) or DAY_SECONDS
        rate = self.arrivals.mean_rate(horizon)
        if self.sessions is not None:
            rate *= self.sessions.mean_session_length
        return rate

    def source(
        self,
        streams: RandomStreams,
        *,
        prefix: str = "client",
        default_dataset: Optional[Dataset] = None,
    ) -> ArrivalSource:
        """Build the arrival source a load generator drives.

        A plain constant workload (no sessions, no trace) resolves to
        :class:`~repro.workload.source.ConstantSource`: one draw per
        arrival rather than thinning's two per candidate, so
        constant-rate seeds reproduce.
        """
        dataset = self.resolved_dataset(default_dataset)
        if self.trace_path is not None:
            _, events = read_trace(self.trace_path)
            return ReplaySource(events, dataset, streams, prefix=prefix,
                                model=self.arrivals)
        if self.sessions is None and isinstance(self.arrivals, ConstantRate):
            return ConstantSource(self.arrivals.rate, dataset, streams,
                                  prefix=prefix,
                                  duration_seconds=self.duration_seconds)
        return SyntheticSource(self.arrivals, dataset, streams, prefix=prefix,
                               sessions=self.sessions,
                               duration_seconds=self.duration_seconds)

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary (embedded in trace headers)."""
        out: Dict[str, object] = {"name": self.name}
        if self.arrivals is not None:
            out["arrivals"] = self.arrivals.describe()
        if self.dataset is not None:
            out["dataset"] = dataset_to_dict(self.dataset)
        if self.sessions is not None:
            out["sessions"] = self.sessions.describe()
        if self.duration_seconds is not None:
            out["duration_seconds"] = self.duration_seconds
        if self.trace_path is not None:
            out["trace_path"] = self.trace_path
        return out

    # -- CLI spec strings ----------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "Workload":
        """Parse a CLI workload spec.

        Either a trace path (``*.jsonl`` / ``*.jsonl.gz``) to replay, or
        ``kind:key=value,...`` to synthesize::

            constant:rate=150
            diurnal:mean=120,swing=0.6,period=3600,duration=7200
            flash:mean=100,at=300,len=60,peak=6,ramp=10
            regions:mean=90,count=3,period=3600

        Shared keys: ``duration`` (seconds), ``sessions=1`` (default
        Markov browse/burst chain), ``zipf=SKEW`` / ``catalog=N``
        (Zipf popularity over an ImageNet-like catalog).
        """
        if spec.endswith((".jsonl", ".jsonl.gz", ".gz")) or os.path.exists(spec):
            return cls.replay(spec)
        kind, _, rest = spec.partition(":")
        params: Dict[str, str] = {}
        if rest:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                if not eq or not key:
                    raise ValueError(
                        f"bad workload spec item {item!r} (expected key=value)")
                params[key.strip()] = value.strip()

        def take(key: str, default: Optional[float] = None) -> Optional[float]:
            if key in params:
                return float(params.pop(key))
            return default

        duration = take("duration")
        sessions = None
        if params.pop("sessions", "0") not in ("0", "", "false"):
            sessions = MarkovSessionModel()
        dataset = None
        if "zipf" in params or "catalog" in params:
            skew = take("zipf", 1.0)
            catalog = int(take("catalog", 256.0))
            dataset = ZipfDataset(ImageNetLikeDataset(), catalog_size=catalog,
                                  skew=skew)

        if kind == "constant":
            rate = take("rate")
            if rate is None:
                raise ValueError("constant workload needs rate=")
            if sessions is not None:
                # Constant session starts still need the synthetic path.
                workload = cls(name=f"constant-{rate:g}",
                               arrivals=ConstantRate(rate), dataset=dataset,
                               sessions=sessions, duration_seconds=duration)
            else:
                workload = cls.constant(rate, dataset=dataset,
                                        duration_seconds=duration)
        elif kind == "diurnal":
            mean = take("mean")
            if mean is None:
                raise ValueError("diurnal workload needs mean=")
            workload = cls.diurnal(
                mean, swing=take("swing", 0.5),
                period_seconds=take("period", DAY_SECONDS),
                phase_offset_seconds=take("offset", 0.0),
                dataset=dataset, sessions=sessions, duration_seconds=duration)
        elif kind == "flash":
            mean = take("mean")
            start = take("at")
            if mean is None or start is None:
                raise ValueError("flash workload needs mean= and at=")
            workload = cls.flash_crowd(
                mean,
                bursts=[(start, take("len", 60.0), take("peak", 4.0))],
                ramp_seconds=take("ramp", 0.0),
                swing=take("swing", 0.0),
                period_seconds=take("period", DAY_SECONDS),
                dataset=dataset, sessions=sessions, duration_seconds=duration)
        elif kind == "regions":
            mean = take("mean")
            if mean is None:
                raise ValueError("regions workload needs mean=")
            count = int(take("count", 3.0))
            period = take("period", DAY_SECONDS)
            regions = [
                Region(f"r{i}", weight=1.0, offset_seconds=i * period / count)
                for i in range(count)
            ]
            workload = cls.regional(
                mean, regions=regions, swing=take("swing", 0.5),
                period_seconds=period, dataset=dataset, sessions=sessions,
                duration_seconds=duration)
        else:
            raise ValueError(
                f"unknown workload kind {kind!r}; expected constant, diurnal, "
                f"flash, regions, or a trace path")
        if params:
            raise ValueError(f"unknown workload spec keys: {sorted(params)}")
        return workload


def _synthesize_events(workload: Workload, seed: int) -> Iterator[TraceEvent]:
    """Lazily generate the trace events of ``(workload, seed)``."""
    streams = RandomStreams(seed)
    # Always the synthetic path (even for constant rates) so every
    # event carries a phase label; the "trace" stream prefix keeps
    # synthesis RNG independent of any run that replays the result.
    source = SyntheticSource(
        workload.arrivals,
        workload.resolved_dataset(),
        streams,
        prefix="trace",
        sessions=workload.sessions,
        duration_seconds=workload.duration_seconds,
    )
    now = 0.0
    while True:
        interval = source.next_interval(now)
        if interval is None:
            return
        now += interval
        source.next_image()
        yield TraceEvent(t=now, key=source.last_key, user=source.last_user,
                         state=source.last_state, phase=source.last_phase)


def synthesize_trace(workload: Workload, path: str, seed: int = 0) -> int:
    """Synthesize ``workload`` into a trace file; a pure function of
    ``(workload, seed)`` — same inputs, byte-identical file.

    Returns the event count.  Events stream straight to disk; a 24h
    day never materializes in memory.
    """
    if workload.is_replay:
        raise ValueError("replay workloads are already traces")
    if workload.arrivals is None:
        raise ValueError("synthesis needs an arrival model")
    if workload.duration_seconds is None:
        raise ValueError("synthesis needs a bounded duration_seconds")
    meta = TraceMeta(
        name=workload.name,
        seed=seed,
        duration_seconds=workload.duration_seconds,
        workload=workload.describe(),
    )
    return write_trace(path, meta, _synthesize_events(workload, seed))
