"""Composable time-varying arrival-rate models.

An :class:`ArrivalModel` is a deterministic *rate envelope* ``r(t)``
(requests/second at simulated time ``t``) with a finite peak, which is
exactly what Lewis-Shedler thinning needs to turn it into a
non-homogeneous Poisson process: draw candidate arrivals at the peak
rate and accept a candidate at ``t`` with probability
``r(t) / peak``.  The accepted points are a Poisson process with
instantaneous intensity ``r(t)`` (see MODELING.md §11 for the math).

Models compose: ``a + b`` superposes two envelopes (sum of rates — the
superposition of independent Poisson processes), and
:class:`FlashCrowd` / :class:`RegionalMix` wrap other models, so
"diurnal day with a lunchtime flash crowd mirrored across three
regions" is an expression, not a subclass.

Every model also labels time with a *phase* string ("day", "night",
"flash", "region:eu", ...) used to annotate requests, spans, and
metrics so a latency regression can be attributed to the traffic
condition that caused it.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from ..sim.sums import float_sum

__all__ = [
    "ArrivalModel",
    "ConstantRate",
    "DiurnalCurve",
    "FlashCrowd",
    "RegionalMix",
    "Region",
    "Superpose",
    "DAY_SECONDS",
]

#: One canonical day; the default diurnal period.
DAY_SECONDS = 86_400.0

#: Phase label for models with no finer structure.
PHASE_STEADY = "steady"


class ArrivalModel:
    """Deterministic rate envelope ``r(t)`` with a finite peak."""

    name: str = "arrivals"

    def rate_at(self, t: float) -> float:
        """Instantaneous offered rate (requests/second) at time ``t``."""
        raise NotImplementedError

    def peak_rate(self) -> float:
        """A finite upper bound on ``rate_at`` (the thinning envelope)."""
        raise NotImplementedError

    def phase_at(self, t: float) -> str:
        """Label of the traffic condition in force at time ``t``."""
        return PHASE_STEADY

    def mean_rate(self, horizon: float, samples: int = 512) -> float:
        """Numeric time-average of the rate over ``[0, horizon]``."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        step = horizon / samples
        total = float_sum(self.rate_at((i + 0.5) * step) for i in range(samples))
        return total / samples

    def describe(self) -> Dict[str, object]:
        """JSON-safe summary (round-trips through trace headers)."""
        return {"kind": type(self).__name__, "name": self.name,
                "peak_rate": self.peak_rate()}

    def validate(self) -> "ArrivalModel":
        peak = self.peak_rate()
        if not (peak > 0 and math.isfinite(peak)):
            raise ValueError(f"peak rate must be positive and finite, got {peak}")
        return self

    def __add__(self, other: "ArrivalModel") -> "Superpose":
        return Superpose((self, other))

    # Models are values: two envelopes built from the same arguments are
    # equal (and hash alike), so configs holding them compare by value
    # and survive a pickle round trip as equal.
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((type(self), tuple(sorted(vars(self).items()))))


class ConstantRate(ArrivalModel):
    """Homogeneous Poisson arrivals at a fixed rate."""

    def __init__(self, rate: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.name = f"constant:{rate:g}"

    def rate_at(self, t: float) -> float:
        return self.rate

    def peak_rate(self) -> float:
        return self.rate

    def describe(self) -> Dict[str, object]:
        return {**super().describe(), "rate": self.rate}


class DiurnalCurve(ArrivalModel):
    """Sinusoidal day/night swing: trough at ``t = 0`` (midnight), peak
    half a period later (midday).

    ``rate(t) = mean * (1 - swing * cos(2*pi*(t + offset) / period))``

    ``swing`` in ``[0, 1)`` keeps the rate strictly positive, so the
    thinning loop always terminates.
    """

    def __init__(
        self,
        mean_rate: float,
        swing: float = 0.5,
        period_seconds: float = DAY_SECONDS,
        phase_offset_seconds: float = 0.0,
    ) -> None:
        if mean_rate <= 0:
            raise ValueError(f"mean_rate must be positive, got {mean_rate}")
        if not 0 <= swing < 1:
            raise ValueError(f"swing must be in [0, 1), got {swing}")
        if period_seconds <= 0:
            raise ValueError(f"period must be positive, got {period_seconds}")
        self.mean = float(mean_rate)
        self.swing = float(swing)
        self.period_seconds = float(period_seconds)
        self.phase_offset_seconds = float(phase_offset_seconds)
        self.name = f"diurnal:{mean_rate:g}x{swing:g}"

    def rate_at(self, t: float) -> float:
        angle = 2 * math.pi * (t + self.phase_offset_seconds) / self.period_seconds
        return self.mean * (1 - self.swing * math.cos(angle))

    def peak_rate(self) -> float:
        return self.mean * (1 + self.swing)

    def phase_at(self, t: float) -> str:
        return "day" if self.rate_at(t) >= self.mean else "night"

    def describe(self) -> Dict[str, object]:
        return {
            **super().describe(),
            "mean_rate": self.mean,
            "swing": self.swing,
            "period_seconds": self.period_seconds,
            "phase_offset_seconds": self.phase_offset_seconds,
        }


class FlashCrowd(ArrivalModel):
    """Multiplicative burst windows on top of a base model.

    Each burst is ``(start, duration, amplitude)``: between ``start``
    and ``start + duration`` the base rate is multiplied by
    ``amplitude``, with linear ramps of ``ramp_seconds`` on both edges
    (flash crowds build and decay; a step function would be a
    different, easier problem for the autoscaler).
    """

    def __init__(
        self,
        base: ArrivalModel,
        bursts: Sequence[Tuple[float, float, float]],
        ramp_seconds: float = 0.0,
    ) -> None:
        if not bursts:
            raise ValueError("FlashCrowd needs at least one burst window")
        for start, duration, amplitude in bursts:
            if start < 0 or duration <= 0:
                raise ValueError(f"bad burst window ({start}, {duration})")
            if amplitude <= 1.0:
                raise ValueError(f"burst amplitude must exceed 1, got {amplitude}")
        if ramp_seconds < 0:
            raise ValueError(f"ramp_seconds must be >= 0, got {ramp_seconds}")
        self.base = base
        self.bursts = tuple((float(s), float(d), float(a)) for s, d, a in bursts)
        self.ramp_seconds = float(ramp_seconds)
        self.name = f"flash[{len(self.bursts)}]:{base.name}"

    def _multiplier(self, t: float) -> float:
        """Largest active burst multiplier at ``t`` (1.0 outside)."""
        best = 1.0
        ramp = self.ramp_seconds
        for start, duration, amplitude in self.bursts:
            if ramp > 0 and start - ramp < t < start:
                gain = 1.0 + (amplitude - 1.0) * (t - (start - ramp)) / ramp
            elif start <= t <= start + duration:
                gain = amplitude
            elif ramp > 0 and start + duration < t < start + duration + ramp:
                gain = amplitude - (amplitude - 1.0) * (t - start - duration) / ramp
            else:
                continue
            best = max(best, gain)
        return best

    def rate_at(self, t: float) -> float:
        return self.base.rate_at(t) * self._multiplier(t)

    def peak_rate(self) -> float:
        top = max(amplitude for _, _, amplitude in self.bursts)
        return self.base.peak_rate() * top

    def phase_at(self, t: float) -> str:
        return "flash" if self._multiplier(t) > 1.0 else self.base.phase_at(t)

    def describe(self) -> Dict[str, object]:
        return {
            **super().describe(),
            "base": self.base.describe(),
            "bursts": [list(b) for b in self.bursts],
            "ramp_seconds": self.ramp_seconds,
        }


class Region:
    """One region of a :class:`RegionalMix`: a named, weighted,
    time-shifted copy of a shared arrival model."""

    __slots__ = ("name", "weight", "offset_seconds")

    def __init__(self, name: str, weight: float = 1.0,
                 offset_seconds: float = 0.0) -> None:
        if not name:
            raise ValueError("region needs a name")
        if weight <= 0:
            raise ValueError(f"region weight must be positive, got {weight}")
        self.name = name
        self.weight = float(weight)
        self.offset_seconds = float(offset_seconds)

    def _key(self) -> Tuple[str, float, float]:
        return (self.name, self.weight, self.offset_seconds)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class RegionalMix(ArrivalModel):
    """Sum of per-region time-offset copies of one base model.

    The planet is not in one timezone: each region replays the base
    curve shifted by its UTC offset and scaled by its traffic share,
    which is what flattens (but does not remove) the global diurnal
    swing.  The phase label names the region contributing the most
    traffic at ``t``.
    """

    def __init__(self, base: ArrivalModel, regions: Sequence[Region]) -> None:
        if not regions:
            raise ValueError("RegionalMix needs at least one region")
        names = [region.name for region in regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names in {names}")
        self.base = base
        self.regions = tuple(regions)
        self.name = f"regions[{','.join(names)}]:{base.name}"

    def _region_rate(self, region: Region, t: float) -> float:
        return region.weight * self.base.rate_at(t + region.offset_seconds)

    def rate_at(self, t: float) -> float:
        return float_sum(self._region_rate(region, t) for region in self.regions)

    def peak_rate(self) -> float:
        return self.base.peak_rate() * float_sum(r.weight for r in self.regions)

    def phase_at(self, t: float) -> str:
        top = max(self.regions, key=lambda region: self._region_rate(region, t))
        return f"region:{top.name}"

    def region_rates(self, t: float) -> Dict[str, float]:
        """Per-region offered rate at ``t`` (for telemetry views)."""
        return {r.name: self._region_rate(r, t) for r in self.regions}

    def describe(self) -> Dict[str, object]:
        return {
            **super().describe(),
            "base": self.base.describe(),
            "regions": [
                {"name": r.name, "weight": r.weight,
                 "offset_seconds": r.offset_seconds}
                for r in self.regions
            ],
        }


class Superpose(ArrivalModel):
    """Sum of independent arrival models (``a + b``)."""

    def __init__(self, models: Sequence[ArrivalModel]) -> None:
        if not models:
            raise ValueError("Superpose needs at least one model")
        flat = []
        for model in models:
            if isinstance(model, Superpose):
                flat.extend(model.models)
            else:
                flat.append(model)
        self.models = tuple(flat)
        self.name = "+".join(model.name for model in self.models)

    def rate_at(self, t: float) -> float:
        return float_sum(model.rate_at(t) for model in self.models)

    def peak_rate(self) -> float:
        return float_sum(model.peak_rate() for model in self.models)

    def phase_at(self, t: float) -> str:
        top = max(self.models, key=lambda model: model.rate_at(t))
        return top.phase_at(t)

    def describe(self) -> Dict[str, object]:
        return {**super().describe(),
                "models": [model.describe() for model in self.models]}


def model_from_dict(data: Dict[str, object]) -> Optional[ArrivalModel]:
    """Rebuild a model from :meth:`ArrivalModel.describe` output.

    Used when replaying a trace whose header embeds the workload that
    synthesized it.  Returns ``None`` for unknown kinds (a trace from a
    newer format still replays — the envelope is only advisory).
    """
    kind = data.get("kind")
    if kind == "ConstantRate":
        return ConstantRate(float(data["rate"]))
    if kind == "DiurnalCurve":
        return DiurnalCurve(
            float(data["mean_rate"]),
            swing=float(data["swing"]),
            period_seconds=float(data["period_seconds"]),
            phase_offset_seconds=float(data.get("phase_offset_seconds", 0.0)),
        )
    if kind == "FlashCrowd":
        base = model_from_dict(data["base"])
        if base is None:
            return None
        return FlashCrowd(
            base,
            [tuple(burst) for burst in data["bursts"]],
            ramp_seconds=float(data.get("ramp_seconds", 0.0)),
        )
    if kind == "RegionalMix":
        base = model_from_dict(data["base"])
        if base is None:
            return None
        return RegionalMix(
            base,
            [Region(r["name"], weight=float(r["weight"]),
                    offset_seconds=float(r["offset_seconds"]))
             for r in data["regions"]],
        )
    if kind == "Superpose":
        models = [model_from_dict(m) for m in data["models"]]
        if any(model is None for model in models):
            return None
        return Superpose(models)
    return None
