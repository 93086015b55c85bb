"""Reactive autoscaling: grow and shrink the fleet under load.

The autoscaler watches a load signal — outstanding requests per live
replica — at every fleet tick and issues scale decisions subject to
cooldowns and replica limits.  Scale-ups pay a boot latency before the
new instance serves (it bills from provisioning, like a real cloud);
scale-downs drain the least-loaded replica rather than killing it, so
no request is ever dropped.  Deliberately simple and deterministic:
the point is to measure how reactive capacity changes cost and SLO
attainment under bursty TEE serving, not to invent a novel controller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import guards


@dataclass(frozen=True)
class AutoscalerConfig:
    """Reactive autoscaler policy knobs.

    Attributes:
        min_replicas: Never drain below this many active instances.
        max_replicas: Never provision above this many active instances.
        scale_up_load: Provision one replica when outstanding requests
            per live replica exceed this.
        scale_down_load: Drain one replica when outstanding requests
            per live replica fall below this (hysteresis: keep it well
            under ``scale_up_load`` to avoid flapping).
        cooldown_s: Minimum time between consecutive scale decisions.
        boot_latency_s: Provision-to-ready delay of a new instance.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    scale_up_load: float = 6.0
    scale_down_load: float = 1.0
    cooldown_s: float = 10.0
    boot_latency_s: float = 15.0

    def __post_init__(self) -> None:
        guards.count("min_replicas", self.min_replicas, ge=1)
        guards.count("max_replicas", self.max_replicas, ge=self.min_replicas)
        guards.finite("scale_up_load", self.scale_up_load)
        guards.finite("scale_down_load", self.scale_down_load)
        if self.scale_down_load >= self.scale_up_load:
            raise ValueError(
                "scale_down_load must be < scale_up_load (hysteresis)")
        guards.finite("cooldown_s", self.cooldown_s, ge=0)
        guards.finite("boot_latency_s", self.boot_latency_s, ge=0)


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaler decision, for the fleet report timeline."""

    time_s: float
    action: str  # "up" | "down"
    load_per_replica: float
    active_replicas: int

    def to_state(self) -> dict:
        """Plain-dict snapshot of this decision."""
        return {
            "time_s": self.time_s,
            "action": self.action,
            "load_per_replica": self.load_per_replica,
            "active_replicas": self.active_replicas,
        }

    # Report/audit serialization is the same plain dict.
    to_dict = to_state

    @classmethod
    def from_state(cls, state: dict) -> "ScaleEvent":
        from ..state.schema import require
        return cls(
            time_s=require(state, "time_s", float, "$.scale_event"),
            action=require(state, "action", str, "$.scale_event"),
            load_per_replica=require(state, "load_per_replica", float,
                                     "$.scale_event"),
            active_replicas=require(state, "active_replicas", int,
                                    "$.scale_event"),
        )


class ReactiveAutoscaler:
    """Threshold autoscaler with hysteresis and cooldown.

    Args:
        config: Policy knobs.
    """

    def __init__(self, config: AutoscalerConfig | None = None) -> None:
        self.config = config or AutoscalerConfig()
        self._last_decision_s = float("-inf")
        self.events: list[ScaleEvent] = []

    def decide(self, now: float, outstanding: int, live_replicas: int,
               active_replicas: int) -> int:
        """Return a replica delta (+1 scale up, -1 drain one, 0 hold).

        Args:
            now: Shared fleet clock.
            outstanding: Queued-or-running requests fleet-wide.
            live_replicas: Instances currently serving.
            active_replicas: Instances billed (live + booting + draining).
        """
        config = self.config
        if now - self._last_decision_s < config.cooldown_s:
            return 0
        # Booting replicas count as capacity already bought: load is
        # judged against what will soon serve, which prevents panic
        # over-provisioning during one boot latency.
        capacity = max(1, active_replicas)
        load = outstanding / capacity
        if load > config.scale_up_load and active_replicas < config.max_replicas:
            self._last_decision_s = now
            self.events.append(ScaleEvent(now, "up", load, active_replicas))
            return 1
        if (load < config.scale_down_load
                and active_replicas > config.min_replicas
                and live_replicas > 1):
            self._last_decision_s = now
            self.events.append(ScaleEvent(now, "down", load, active_replicas))
            return -1
        return 0

    # -- checkpoint/restore ---------------------------------------------------

    def config_fingerprint(self) -> dict:
        """Identity of the policy knobs, for restore checks."""
        config = self.config
        return {
            "min_replicas": config.min_replicas,
            "max_replicas": config.max_replicas,
            "scale_up_load": config.scale_up_load,
            "scale_down_load": config.scale_down_load,
            "cooldown_s": config.cooldown_s,
            "boot_latency_s": config.boot_latency_s,
        }

    def to_state(self) -> dict:
        """Plain-dict snapshot of the controller state.

        The never-decided sentinel ``-inf`` cannot survive strict JSON,
        so it is encoded as ``None`` and decoded back on restore.
        """
        last = self._last_decision_s
        return {
            "config": self.config_fingerprint(),
            "last_decision_s": None if last == float("-inf") else last,
            "events": [event.to_state() for event in self.events],
        }

    def from_state(self, state: dict) -> None:
        """Install a :meth:`to_state` snapshot into this controller.

        Raises:
            repro.state.errors.StateIntegrityError: If the snapshot was
                taken under different policy knobs.
        """
        from ..state.errors import StateIntegrityError
        from ..state.schema import require, require_finite

        recorded = require(state, "config", dict, "$.autoscaler")
        mine = self.config_fingerprint()
        if recorded != mine:
            diverged = sorted(key for key in set(recorded) | set(mine)
                              if recorded.get(key) != mine.get(key))
            raise StateIntegrityError(
                f"autoscaler snapshot was taken under a different config "
                f"(mismatched: {diverged})")
        last = require_finite(state, "last_decision_s", "$.autoscaler",
                              optional=True)
        self._last_decision_s = float("-inf") if last is None else last
        self.events = [ScaleEvent.from_state(event) for event
                       in require(state, "events", list, "$.autoscaler")]
