"""Fault schedules: deterministic, seedable failure timelines.

A :class:`FaultSchedule` is an immutable, time-sorted list of
:class:`FaultEvent` records that a
:class:`~repro.faults.injector.FaultInjector` replays against the
shared-clock fleet simulator.  Three builders cover the operational
regimes chaos tests care about: :func:`one_shot` (a single scripted
failure), :func:`recurring` (a periodic failure, e.g. a nightly enclave
restart), and :func:`mtbf_schedule` (a hazard-rate process — per-replica
exponential inter-failure times at a target MTBF, with MTTR-drawn
repair windows).  Every draw comes from ``random.Random`` seeded by
``f"{seed}:{replica_id}"``, so a schedule is bit-identical across
processes and independent of replica iteration order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .. import guards

#: Fault kinds the injector knows how to apply.
FAULT_KINDS = ("crash", "hang", "slowdown", "boot_failure",
               "attestation_failure", "link_degrade")

#: Fraction of a decode step spent on interconnect traffic (used to
#: translate a link-bandwidth cut into a step-time multiplier).
DEFAULT_COMM_SHARE = 0.15

#: Default repair/penalty window when a builder draw is not supplied.
DEFAULT_DURATION_S = 10.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure.

    Attributes:
        time_s: Injection time on the fleet's shared clock.
        kind: One of :data:`FAULT_KINDS`.
        replica_id: Target instance (fleet provisioning order).
        duration_s: Effect window — hang stall, slowdown window,
            attestation re-admission delay, boot-failure penalty, or
            link-degradation window.  Ignored for ``crash``.
        factor: ``slowdown``: wall-time multiplier (> 1).
            ``link_degrade``: remaining bandwidth fraction in (0, 1].
        restart_after_s: For ``crash``: downtime before the instance
            reboots (``None`` = the instance stays dead).
        comm_share: For ``link_degrade``: fraction of step time that is
            interconnect-bound.
    """

    time_s: float
    kind: str
    replica_id: int
    duration_s: float = 0.0
    factor: float = 1.0
    restart_after_s: float | None = None
    comm_share: float = DEFAULT_COMM_SHARE

    def __post_init__(self) -> None:
        guards.finite("time_s", self.time_s, ge=0)
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {FAULT_KINDS}")
        guards.count("replica_id", self.replica_id, ge=0)
        guards.finite("duration_s", self.duration_s, ge=0)
        if self.kind in ("hang", "slowdown", "link_degrade",
                         "attestation_failure") and self.duration_s <= 0:
            raise ValueError(f"{self.kind} requires duration_s > 0")
        guards.finite("factor", self.factor)
        if self.kind == "slowdown" and self.factor <= 1.0:
            raise ValueError("slowdown factor must be > 1")
        if self.kind == "link_degrade" and not 0 < self.factor <= 1.0:
            raise ValueError("link_degrade factor must be in (0, 1]")
        if self.restart_after_s is not None:
            guards.finite("restart_after_s", self.restart_after_s, ge=0)
        guards.finite("comm_share", self.comm_share, gt=0, le=1)

    def to_dict(self) -> dict:
        return {
            "time_s": self.time_s,
            "kind": self.kind,
            "replica_id": self.replica_id,
            "duration_s": self.duration_s,
            "factor": self.factor,
            "restart_after_s": self.restart_after_s,
            "comm_share": self.comm_share,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict` (checkpoint restore path)."""
        from ..state.errors import StateError, StateValueError
        from ..state.schema import require, require_finite
        try:
            return cls(
                time_s=require_finite(payload, "time_s", "$.fault_event"),
                kind=require(payload, "kind", str, "$.fault_event"),
                replica_id=require(payload, "replica_id", int,
                                   "$.fault_event"),
                duration_s=require_finite(payload, "duration_s",
                                          "$.fault_event"),
                factor=require_finite(payload, "factor", "$.fault_event"),
                restart_after_s=require_finite(payload, "restart_after_s",
                                               "$.fault_event",
                                               optional=True),
                comm_share=require_finite(payload, "comm_share",
                                          "$.fault_event"),
            )
        except StateError:
            raise
        except ValueError as error:
            raise StateValueError(
                f"invalid fault event payload: {error}") from error


def _sort_key(event: FaultEvent) -> tuple:
    return (event.time_s, event.replica_id, FAULT_KINDS.index(event.kind))


@dataclass(frozen=True)
class FaultSchedule:
    """A time-sorted, immutable failure timeline."""

    events: tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=_sort_key))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __add__(self, other: FaultSchedule) -> FaultSchedule:
        return FaultSchedule(self.events + other.events)

    @classmethod
    def empty(cls) -> FaultSchedule:
        """A schedule that injects nothing (chaos machinery armed, no
        faults) — the zero-fault differential-twin configuration."""
        return cls(())

    def to_dicts(self) -> list[dict]:
        return [event.to_dict() for event in self.events]


def one_shot(kind: str, replica_id: int, time_s: float,
             **params: object) -> FaultSchedule:
    """A single scripted failure."""
    return FaultSchedule((FaultEvent(time_s=time_s, kind=kind,
                                     replica_id=replica_id, **params),))


def recurring(kind: str, replica_id: int, start_s: float, period_s: float,
              count: int, **params: object) -> FaultSchedule:
    """The same failure every ``period_s`` seconds, ``count`` times."""
    guards.finite("period_s", period_s, gt=0)
    guards.count("count", count, ge=1)
    return FaultSchedule(tuple(
        FaultEvent(time_s=start_s + index * period_s, kind=kind,
                   replica_id=replica_id, **params)
        for index in range(count)))


#: Kind mix drawn by :func:`mtbf_schedule` (boot failures are excluded:
#: they only make sense against a booting instance).
MTBF_KIND_WEIGHTS = (
    ("crash", 0.35),
    ("hang", 0.20),
    ("slowdown", 0.20),
    ("attestation_failure", 0.15),
    ("link_degrade", 0.10),
)


def mtbf_schedule(replica_ids: list[int], mtbf_s: float, horizon_s: float,
                  seed: int = 0, mttr_s: float = DEFAULT_DURATION_S,
                  kinds: tuple[tuple[str, float], ...] = MTBF_KIND_WEIGHTS,
                  ) -> FaultSchedule:
    """A hazard-rate failure process per replica.

    Each replica fails independently with exponential inter-failure
    times at mean ``mtbf_s`` until ``horizon_s``; the fault kind is
    drawn from ``kinds`` and repair/effect windows are exponential at
    mean ``mttr_s`` (floored at one second so a fault is never a
    no-op).  Deterministic per ``(seed, replica_id)``.
    """
    ids = set(replica_ids)
    for replica_id in ids:
        guards.count("replica_id", replica_id, ge=0)
    guards.finite("mtbf_s", mtbf_s, gt=0)
    guards.finite("horizon_s", horizon_s, gt=0)
    guards.finite("mttr_s", mttr_s, gt=0)
    names = tuple(name for name, _ in kinds)
    weights = tuple(weight for _, weight in kinds)
    events: list[FaultEvent] = []
    for replica_id in sorted(ids):
        rng = random.Random(f"{seed}:{replica_id}")
        clock = rng.expovariate(1.0 / mtbf_s)
        while clock < horizon_s:
            kind = rng.choices(names, weights=weights, k=1)[0]
            repair = max(1.0, rng.expovariate(1.0 / mttr_s))
            params: dict[str, object] = {}
            if kind == "crash":
                params["restart_after_s"] = repair
            elif kind == "slowdown":
                params["duration_s"] = repair
                params["factor"] = 1.5 + 2.0 * rng.random()
            elif kind == "link_degrade":
                params["duration_s"] = repair
                params["factor"] = 0.1 + 0.8 * rng.random()
            else:  # hang / attestation_failure / boot_failure
                params["duration_s"] = repair
            events.append(FaultEvent(time_s=clock, kind=kind,
                                     replica_id=replica_id, **params))
            clock += rng.expovariate(1.0 / mtbf_s)
    return FaultSchedule(tuple(events))
