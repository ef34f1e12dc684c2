"""Mutable health state attached to simulated devices and brokers.

A :class:`DeviceHealth` hangs off a :class:`~repro.hardware.gpu.Gpu` or
:class:`~repro.hardware.pcie.PcieLink` (their ``health`` attribute is
``None`` until a :class:`~repro.faults.injector.FaultInjector` attaches
one, keeping the healthy path zero-cost).  Device code consults it at
its choke points: ``gate()`` blocks while the device is down, and the
``slowdown`` / ``bandwidth_factor`` multipliers degrade service rates.

Overlapping faults extend the down window (the device restores at the
maximum of all requested restore times).
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from ..kernel import Event, ExecutionBackend

__all__ = ["DeviceHealth", "BrokerHealth"]


class DeviceHealth:
    """Down/degraded state for one device (GPU, PCIe link, node)."""

    def __init__(self, env: ExecutionBackend) -> None:
        self.env = env
        #: Kernel-duration multiplier (>= 1.0 when degraded).
        self.slowdown = 1.0
        #: Transfer-rate multiplier in (0, 1] (PCIe throttling).
        self.bandwidth_factor = 1.0
        self._resume: Optional[Event] = None
        self._down_until = 0.0
        #: Total failures injected (diagnostics).
        self.failures = 0
        #: Accumulated seconds spent down.
        self.down_seconds = 0.0
        self._down_since: Optional[float] = None

    def __repr__(self) -> str:
        state = "down" if self.is_down else "up"
        return f"<DeviceHealth {state} slowdown={self.slowdown} bw={self.bandwidth_factor}>"

    @property
    def is_down(self) -> bool:
        return self._resume is not None

    def fail(self, duration_seconds: float) -> None:
        """Take the device down for ``duration_seconds`` from now."""
        if duration_seconds <= 0:
            raise ValueError("fault duration must be positive")
        self.failures += 1
        restore_at = self.env.now + duration_seconds
        if self._resume is None:
            self._resume = self.env.event()
            self._down_since = self.env.now
            self._down_until = restore_at
            self.env.spawn(self._restore())
        else:
            # Overlapping fault: extend the outage window.
            self._down_until = max(self._down_until, restore_at)

    def _restore(self) -> Generator:
        while self.env.now < self._down_until:
            yield self.env.timeout(self._down_until - self.env.now)
        resume = self._resume
        self._resume = None
        if self._down_since is not None:
            self.down_seconds += self.env.now - self._down_since
            self._down_since = None
        assert resume is not None
        resume.succeed()

    def gate(self) -> Generator:
        """Process generator: block while the device is down.

        Usage from device code: ``yield from health.gate()``.
        """
        while self._resume is not None:
            yield self._resume


class BrokerHealth(DeviceHealth):
    """Broker health: outages plus a delivery-loss probability."""

    def __init__(
        self,
        env: ExecutionBackend,
        rng: random.Random,
        loss_probability: float = 0.0,
        redelivery_seconds: float = 50e-3,
    ) -> None:
        super().__init__(env)
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        if redelivery_seconds <= 0:
            raise ValueError("redelivery_seconds must be positive")
        self._rng = rng
        #: Probability that one delivery attempt is lost.
        self.loss_probability = loss_probability
        #: Producer-side retry delay after a lost ack (at-least-once).
        self.redelivery_seconds = redelivery_seconds

    def draw_loss(self) -> bool:
        """Deterministically decide whether this delivery attempt fails."""
        if self.loss_probability <= 0.0:
            return False
        return self._rng.random() < self.loss_probability
