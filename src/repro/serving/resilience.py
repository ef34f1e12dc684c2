"""Request-level resilience: deadlines, retries, shedding, circuit breaking.

Production serving is defined by how it behaves when nodes stall or
crash — the regime the paper's healthy testbed never enters.  This
module holds the policy objects and the circuit-breaker state machine
used by :class:`~repro.serving.fleet.LoadBalancer`:

- **deadlines**: a request that does not complete within
  ``deadline_seconds`` of dispatch counts as a timeout, not a success,
  bounding tail latency at the cost of goodput;
- **retries**: failed attempts are retried with exponential backoff and
  deterministic jitter (drawn from a named
  :class:`~repro.sim.RandomStreams` stream, so the same seed yields the
  same retry timeline);
- **load shedding**: the balancer rejects new work outright once its
  backlog exceeds ``max_backlog`` (admission control);
- **circuit breaking**: a per-node breaker ejects nodes after
  consecutive failures and later lets a limited number of probes
  through (closed → open → half-open → closed).

Everything here is plain state driven by the caller's clock; nothing
spawns simulation processes, so a ``None`` policy is exactly zero-cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional

__all__ = [
    "RetryPolicy",
    "BreakerPolicy",
    "ResiliencePolicy",
    "CircuitBreaker",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass(frozen=True, kw_only=True)
class RetryPolicy:
    """Exponential backoff with bounded jitter.

    Attempt ``k`` (first retry is ``k=1``) backs off
    ``min(backoff_max_seconds, base * multiplier**(k-1))`` plus a
    uniform jitter in ``[0, jitter_seconds)``.
    """

    #: Total attempts including the first try (1 disables retries).
    max_attempts: int = 3
    backoff_base_seconds: float = 2e-3
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 0.25
    jitter_seconds: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1.0")
        if self.jitter_seconds < 0:
            raise ValueError("jitter_seconds must be >= 0")

    def backoff_seconds(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.backoff_max_seconds,
            self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 1),
        )
        if rng is not None and self.jitter_seconds > 0:
            delay += rng.uniform(0, self.jitter_seconds)
        return delay

    def schedule(self, rng: Optional[random.Random] = None) -> List[float]:
        """The full backoff timeline for a request that keeps failing."""
        return [self.backoff_seconds(k, rng) for k in range(1, self.max_attempts)]


@dataclass(frozen=True, kw_only=True)
class BreakerPolicy:
    """Circuit-breaker thresholds."""

    #: Consecutive failures that open the breaker.
    failure_threshold: int = 5
    #: Time the breaker stays open before probing the node again.
    recovery_seconds: float = 0.5
    #: Concurrent probe requests admitted while half-open.
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.recovery_seconds <= 0:
            raise ValueError("recovery_seconds must be positive")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


@dataclass(frozen=True, kw_only=True)
class ResiliencePolicy:
    """The complete request-resilience configuration of a deployment."""

    #: Per-attempt completion deadline, measured from dispatch; ``None``
    #: disables deadline enforcement (and therefore retries on timeout).
    deadline_seconds: Optional[float] = 0.25
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Balancer backlog depth beyond which new requests are shed;
    #: ``None`` disables admission control.
    max_backlog: Optional[int] = None
    #: Per-node circuit breaker; ``None`` disables breaking.
    breaker: Optional[BreakerPolicy] = field(default_factory=BreakerPolicy)

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive or None")
        if self.max_backlog is not None and self.max_backlog < 1:
            raise ValueError("max_backlog must be >= 1 or None")

    def with_overrides(self, **kwargs) -> "ResiliencePolicy":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


class CircuitBreaker:
    """Per-node failure ejection with half-open recovery probes.

    State machine:

    - **closed**: requests flow; ``failure_threshold`` consecutive
      failures trip it open.
    - **open**: no requests for ``recovery_seconds``; then the next
      ``allows()`` call transitions to half-open.
    - **half-open**: up to ``half_open_probes`` in-flight probes; one
      success closes the breaker, one failure re-opens it.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.probes_in_flight = 0
        # Diagnostics
        self.open_transitions = 0

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state} failures={self.consecutive_failures}>"

    def allows(self, now: float) -> bool:
        """Whether a request may be routed to this node right now."""
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= self.policy.recovery_seconds:
                self.state = BREAKER_HALF_OPEN
                self.probes_in_flight = 0
                return True
            return False
        # half-open
        return self.probes_in_flight < self.policy.half_open_probes

    def note_dispatch(self) -> None:
        """Register that a request was actually routed here."""
        if self.state == BREAKER_HALF_OPEN:
            self.probes_in_flight += 1

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state == BREAKER_HALF_OPEN:
            self.state = BREAKER_CLOSED
            self.probes_in_flight = 0
            self.opened_at = None

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN or (
            self.state == BREAKER_CLOSED
            and self.consecutive_failures >= self.policy.failure_threshold
        ):
            self.state = BREAKER_OPEN
            self.opened_at = now
            self.probes_in_flight = 0
            self.open_transitions += 1
