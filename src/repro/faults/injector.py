"""Fault injector: replays a schedule against the fleet's shared clock.

The injector is a deterministic event source: the fleet loop asks it
for the faults due by each tick (:meth:`FaultInjector.due`) and records
what actually happened when each one was applied
(:meth:`FaultInjector.record`).  The applied timeline — injection time,
event, and a human-readable effect — is surfaced on the
:class:`~repro.fleet.report.FleetReport` so chaos checks can replay and
compare fault histories bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schedule import FaultEvent, FaultSchedule


@dataclass(frozen=True)
class AppliedFault:
    """One fault as it actually landed on the fleet.

    Attributes:
        event: The scheduled fault.
        applied_s: Shared-clock tick at which it was applied (the first
            tick at or after ``event.time_s``).
        effect: What the injection did (e.g. ``"crash: evacuated 3
            requests"`` or ``"no-op: replica already failed"``).
    """

    event: FaultEvent
    applied_s: float
    effect: str

    def to_dict(self) -> dict:
        return {"event": self.event.to_dict(), "applied_s": self.applied_s,
                "effect": self.effect}


class FaultInjector:
    """Single-shot replay of one :class:`FaultSchedule`.

    An injector is consumed by one fleet run; build a fresh one per run
    (passing a :class:`FaultSchedule` to the simulator does this
    automatically).
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self._cursor = 0
        self.applied: list[AppliedFault] = []

    @property
    def pending(self) -> int:
        """Events not yet handed to the fleet."""
        return len(self.schedule.events) - self._cursor

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.schedule.events)

    @property
    def next_due_s(self) -> float | None:
        """Scheduled time of the next undelivered event, if any.

        The fleet uses this as a wake candidate so it can jump quiet
        stretches without missing an injection tick.
        """
        if self._cursor >= len(self.schedule.events):
            return None
        return self.schedule.events[self._cursor].time_s

    def due(self, now: float) -> list[FaultEvent]:
        """Pop every event scheduled at or before ``now``, in order."""
        popped: list[FaultEvent] = []
        events = self.schedule.events
        while self._cursor < len(events) and events[self._cursor].time_s <= now:
            popped.append(events[self._cursor])
            self._cursor += 1
        return popped

    def record(self, event: FaultEvent, applied_s: float,
               effect: str) -> None:
        """Log how a due event landed (kept in application order)."""
        self.applied.append(AppliedFault(event=event, applied_s=applied_s,
                                         effect=effect))

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        """Plain-dict snapshot: schedule fingerprint, cursor, timeline.

        The full schedule rides along so restore can refuse a cursor
        positioned against a *different* timeline — a silently wrong
        schedule would replay the wrong faults from the right index.
        """
        return {
            "schedule": self.schedule.to_dicts(),
            "cursor": self._cursor,
            "applied": [fault.to_dict() for fault in self.applied],
        }

    def from_state(self, state: dict) -> None:
        """Install a :meth:`to_state` snapshot into this injector.

        The injector must have been built from the same schedule.

        Raises:
            repro.state.errors.StateIntegrityError: On a schedule
                mismatch or an out-of-range cursor.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        recorded = require(state, "schedule", list, "$.injector")
        if recorded != self.schedule.to_dicts():
            raise StateIntegrityError(
                f"injector snapshot was taken against a different fault "
                f"schedule ({len(recorded)} vs "
                f"{len(self.schedule.events)} events)")
        cursor = require(state, "cursor", int, "$.injector")
        if not 0 <= cursor <= len(self.schedule.events):
            raise StateIntegrityError(
                f"injector cursor {cursor} out of range for "
                f"{len(self.schedule.events)} events")
        self._cursor = cursor
        self.applied = []
        for payload in require(state, "applied", list, "$.injector"):
            self.applied.append(AppliedFault(
                event=FaultEvent.from_dict(
                    require(payload, "event", dict, "$.injector.applied")),
                applied_s=require_finite(payload, "applied_s",
                                         "$.injector.applied"),
                effect=require(payload, "effect", str, "$.injector.applied"),
            ))
