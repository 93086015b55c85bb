"""Request-level resilience: timeout/retry policies and degradation.

Two knobs govern how a fleet survives the faults that
:mod:`repro.faults.schedule` injects:

* :class:`RetryPolicy` — a per-request timeout plus exponential backoff
  with seeded jitter.  Backoff delays are deterministic per
  ``(seed, request_id)`` and monotone non-decreasing per attempt (a
  running max over the jittered exponential series), so chaos replays
  are bit-identical and a later retry never fires sooner than an
  earlier one would have.
* :class:`DegradationPolicy` — what to do when demand outlives
  capacity: ``shed`` drops the lowest-priority overdue requests, while
  ``spill`` provisions emergency replicas of a fallback spec (the
  paper's "other backend", e.g. spilling a TDX fleet onto cGPU).

Requests that leave the system unserved are recorded as
:class:`ShedRequest` so conservation checks can prove nothing is ever
silently lost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .. import guards
from ..serving.scheduler import ServeRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet -> faults)
    from ..fleet.replica import ReplicaSpec

#: Degradation modes.
DEGRADATION_MODES = ("shed", "spill")

#: Reasons a request can be shed (surfaced on :class:`ShedRequest`).
SHED_REASONS = ("retries-exhausted", "degraded", "unroutable")


@dataclass(frozen=True)
class RetryPolicy:
    """Per-request timeout + seeded exponential backoff.

    Attributes:
        timeout_s: In-flight wall-clock budget per attempt; a request
            older than this on a replica is cancelled and retried.
        max_attempts: Total attempts (first submission included) before
            the request is shed as ``retries-exhausted``.
        backoff_base_s: Delay before the first retry.
        backoff_multiplier: Exponential growth per further retry.
        jitter_frac: Uniform jitter added on top of each delay, as a
            fraction of the un-jittered delay.
        seed: Jitter seed; draws are keyed by
            ``f"{seed}:{request_id}:{retry}"`` so they are independent
            of scheduling order and stable across processes.
    """

    timeout_s: float = 30.0
    max_attempts: int = 3
    backoff_base_s: float = 0.5
    backoff_multiplier: float = 2.0
    jitter_frac: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        guards.finite("timeout_s", self.timeout_s, gt=0)
        guards.count("max_attempts", self.max_attempts, ge=1)
        guards.finite("backoff_base_s", self.backoff_base_s, ge=0)
        guards.finite("backoff_multiplier", self.backoff_multiplier, ge=1)
        guards.finite("jitter_frac", self.jitter_frac, ge=0, le=1)

    def jitter(self, request_id: int, retry: int) -> float:
        """Deterministic uniform draw in [0, 1) for one retry."""
        return random.Random(f"{self.seed}:{request_id}:{retry}").random()

    def backoff_s(self, request_id: int, retry: int) -> float:
        """Delay before retry number ``retry`` (1-based).

        Monotone non-decreasing in ``retry`` and deterministic per
        ``(seed, request_id)``.
        """
        if retry < 1:
            raise ValueError("retry must be >= 1")
        delay = 0.0
        for k in range(1, retry + 1):
            base = self.backoff_base_s * self.backoff_multiplier ** (k - 1)
            jittered = base * (1.0 + self.jitter_frac
                               * self.jitter(request_id, k))
            # Running max: jitter can never reorder successive retries.
            delay = max(delay, jittered)
        return delay


@dataclass(frozen=True)
class DegradationPolicy:
    """Graceful degradation when held work outlives ``max_hold_s``.

    Attributes:
        mode: ``shed`` drops overdue requests (lowest priority first);
            ``spill`` provisions emergency replicas instead.
        max_hold_s: How long a request may wait unrouted before the
            policy acts.
        spill_spec: Spec of emergency replicas (``spill`` mode); when
            ``None`` the fleet's ``scale_spec`` is used.
        spill_boot_s: Boot latency of emergency replicas.
        max_spill: Cap on emergency instances per run.
    """

    mode: str = "shed"
    max_hold_s: float = 20.0
    spill_spec: ReplicaSpec | None = None
    spill_boot_s: float = 0.0
    max_spill: int = 2

    def __post_init__(self) -> None:
        if self.mode not in DEGRADATION_MODES:
            raise ValueError(f"unknown degradation mode {self.mode!r}; "
                             f"expected one of {DEGRADATION_MODES}")
        guards.finite("max_hold_s", self.max_hold_s, gt=0)
        guards.finite("spill_boot_s", self.spill_boot_s, ge=0)
        guards.count("max_spill", self.max_spill, ge=0)


@dataclass(frozen=True)
class ShedRequest:
    """A request that left the system unserved.

    Attributes:
        request: The original request.
        time_s: When it was shed.
        reason: One of :data:`SHED_REASONS`.
        attempts: Submissions made before giving up (0 = never routed).
    """

    request: ServeRequest
    time_s: float
    reason: str
    attempts: int

    def __post_init__(self) -> None:
        if self.reason not in SHED_REASONS:
            raise ValueError(f"unknown shed reason {self.reason!r}; "
                             f"expected one of {SHED_REASONS}")
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")

    def to_dict(self) -> dict:
        return {"request_id": self.request.request_id, "time_s": self.time_s,
                "reason": self.reason, "attempts": self.attempts}
