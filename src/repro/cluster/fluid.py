"""Fluid approximation for cold cells.

A planet-scale day routes most traffic to a minority of hot cells; the
long tail of cells sees a trickle that never builds a queue.  Spending
a full discrete-event fleet on those cells buys nothing: at (near) zero
load every request sails through at the zero-load latency.  The fluid
model serves exactly that — each request completes analytically at the
cell's calibrated zero-load latency, with the span breakdown of an
unloaded request — until the cell turns *hot*, at which point it
switches permanently to discrete-event simulation.

The hot decision is cell-local and monotone (a count of arrivals inside
a sliding window), so it is a pure function of the cell's own arrival
sequence: deterministic, identical under any shard packing and in both
execution modes.

The zero-load latency is measured, not hand-modelled: a probe runs one
request through a throwaway single-node environment (no RNG draws on
that path).  A cell takes the profile of its *first* arrival's image
and serves every later fluid request at that profile, whatever image
the request carries.  The probe is a pure function of the image and
the shard's node configuration, so each shard's
:class:`ZeroLoadProfiles` probes each distinct image once and every
cell whose first image is equal shares that result; the answer is the
same as probing per cell, under any packing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from ..core.config import ServerConfig
from ..core.server import InferenceServer
from ..hardware.calibration import Calibration
from ..hardware.platform import ServerNode
from ..sim import Environment
from ..vision.image import Image

__all__ = ["FluidCellModel", "ZeroLoadProfiles", "zero_load_profile"]

#: (latency, spans, batch_size) of one request on an idle node.
Profile = Tuple[float, Dict[str, float], Optional[int]]


def zero_load_profile(
    image,
    server_config: ServerConfig,
    calibration: Calibration,
    gpu_count: int,
) -> Profile:
    """(latency, spans, batch_size) of one request on an idle node."""
    env = Environment()
    node = ServerNode(env, calibration, gpu_count=gpu_count)
    server = InferenceServer(env, node, server_config)
    done = server.submit(image, arrival_time=0.0)
    request = env.run(until=done)
    return request.latency, dict(request.spans), request.batch_size


class ZeroLoadProfiles:
    """One shard's zero-load probes, one per distinct image.

    Holds the node configuration every cell of the shard shares; equal
    images hash equal (:class:`~repro.vision.image.Image` is a frozen
    dataclass), so a repeated image costs a dict lookup, not a probe.
    The returned spans dict is shared: callers copy before mutating.
    """

    __slots__ = ("server_config", "calibration", "gpu_count", "_profiles")

    def __init__(
        self,
        server_config: ServerConfig,
        calibration: Calibration,
        gpu_count: int,
    ) -> None:
        self.server_config = server_config
        self.calibration = calibration
        self.gpu_count = gpu_count
        self._profiles: Dict[Image, Profile] = {}

    def profile(self, image: Image) -> Profile:
        """The zero-load profile of ``image``, probed on first request."""
        profile = self._profiles.get(image)
        if profile is None:
            profile = self._profiles[image] = zero_load_profile(
                image, self.server_config, self.calibration, self.gpu_count)
        return profile


class FluidCellModel:
    """Per-cell fluid state: its first arrival's profile + hot detection."""

    def __init__(
        self,
        profiles: ZeroLoadProfiles,
        *,
        hot_threshold: int,
        hot_window_seconds: float,
    ) -> None:
        self._profiles = profiles
        self._hot_threshold = hot_threshold
        self._hot_window = hot_window_seconds
        self._profile: Optional[Profile] = None
        self._recent: Deque[float] = deque()
        #: Requests served analytically before the cell went hot.
        self.fluid_served = 0

    def note_arrival(self, now: float) -> bool:
        """Record an arrival; ``True`` when the cell just turned hot.

        The arrival that crosses the threshold (and everything after it)
        belongs to the discrete-event fleet.
        """
        recent = self._recent
        recent.append(now)
        floor = now - self._hot_window
        while recent and recent[0] < floor:
            recent.popleft()
        return len(recent) >= self._hot_threshold

    def serve(self, image: Image) -> Profile:
        """Zero-load (latency, spans copy, batch_size) for one request.

        Every request is served at the profile of the cell's first
        fluid arrival, not at ``image``'s own.
        """
        if self._profile is None:
            self._profile = self._profiles.profile(image)
        latency, spans, batch = self._profile
        return latency, dict(spans), batch
