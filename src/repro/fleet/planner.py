"""Capacity planning: replicas and dollars needed to hit an SLO.

The paper's cost analysis (Figs. 12-13) prices a single instance at a
fixed workload; a provider's real question is sizing: *how many* TDX or
cGPU replicas does a given traffic level need before p99 TTFT clears
the SLO, and what does a million tokens cost at that fleet size?  The
sweep answers it by simulating the same arrival trace against growing
fixed fleets of each kind and finding the smallest that attains the
objective.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serving.scheduler import ServeRequest
from .cluster import fixed_fleet
from .replica import ReplicaSpec
from .report import FleetReport


@dataclass(frozen=True)
class CapacityPoint:
    """One fleet size evaluated against the trace."""

    kind: str
    replicas: int
    p99_ttft_s: float
    attainment: float
    usd_per_mtok: float
    meets_slo: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "replicas": self.replicas,
            "p99_ttft_s": self.p99_ttft_s,
            "attainment": self.attainment,
            "usd_per_mtok": self.usd_per_mtok,
            "meets_slo": self.meets_slo,
        }


@dataclass(frozen=True)
class CapacityPlan:
    """Sweep result for one replica kind.

    Attributes:
        kind: Replica kind swept.
        slo_ttft_s: The p-percentile TTFT objective.
        percentile: Which TTFT percentile the SLO binds (paper: p99).
        points: One entry per fleet size tried, ascending.
        replicas_needed: Smallest fleet meeting the SLO (``None`` when
            even the largest swept fleet misses it).
    """

    kind: str
    slo_ttft_s: float
    percentile: float
    points: tuple[CapacityPoint, ...]
    replicas_needed: int | None

    @classmethod
    def from_points(cls, kind: str, points: list[CapacityPoint],
                    slo_ttft_s: float, percentile: float) -> "CapacityPlan":
        """The plan of a left-to-right capacity curve: the first size
        that meets the SLO is the one needed."""
        needed = next((p.replicas for p in points if p.meets_slo), None)
        return cls(kind=kind, slo_ttft_s=slo_ttft_s, percentile=percentile,
                   points=tuple(points), replicas_needed=needed)

    @property
    def plan_point(self) -> CapacityPoint | None:
        """The chosen fleet size's evaluation, if the SLO is attainable."""
        for point in self.points:
            if point.replicas == self.replicas_needed:
                return point
        return None

    @property
    def usd_per_mtok_at_slo(self) -> float | None:
        point = self.plan_point
        return point.usd_per_mtok if point else None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slo_ttft_s": self.slo_ttft_s,
            "percentile": self.percentile,
            "replicas_needed": self.replicas_needed,
            "usd_per_mtok_at_slo": self.usd_per_mtok_at_slo,
            "points": [point.to_dict() for point in self.points],
        }


def evaluate_fleet(spec: ReplicaSpec, count: int,
                   requests: list[ServeRequest], slo_ttft_s: float,
                   percentile: float = 99.0,
                   ) -> tuple[CapacityPoint, FleetReport]:
    """Run one fixed fleet against the trace and grade it vs the SLO.

    The fleet routes least-outstanding, fault-free, at the default tick.
    """
    fleet = fixed_fleet(spec, count)
    report = fleet.run(requests)
    p_ttft = report.ttft_percentile(percentile)
    point = CapacityPoint(
        kind=spec.kind, replicas=count, p99_ttft_s=p_ttft,
        attainment=report.slo_attainment(slo_ttft_s),
        usd_per_mtok=report.usd_per_mtok,
        meets_slo=p_ttft <= slo_ttft_s)
    return point, report


def capacity_plan(spec: ReplicaSpec, requests: list[ServeRequest],
                  slo_ttft_s: float, percentile: float = 99.0,
                  max_replicas: int = 8) -> CapacityPlan:
    """Grow a fixed fleet until the TTFT percentile clears the SLO.

    The sweep stops at the first fleet size that meets the objective
    (capacity curves are evaluated left to right; the metamorphic
    audit separately checks that growing the fleet never hurts the
    tail, so the first hit is the minimum).  The resumable form of the
    same curve is :func:`repro.state.points.capacity_grid`.

    Raises:
        ValueError: On a bad SLO/limit or an infeasible trace.
    """
    if slo_ttft_s <= 0:
        raise ValueError("slo_ttft_s must be positive")
    if max_replicas < 1:
        raise ValueError("max_replicas must be >= 1")
    points = []
    for count in range(1, max_replicas + 1):
        point, _ = evaluate_fleet(spec, count, requests, slo_ttft_s,
                                  percentile)
        points.append(point)
        if point.meets_slo:
            break
    return CapacityPlan.from_points(spec.kind, points, slo_ttft_s,
                                    percentile)


def capacity_sweep(specs: list[ReplicaSpec], requests: list[ServeRequest],
                   slo_ttft_s: float, percentile: float = 99.0,
                   max_replicas: int = 8) -> dict[str, CapacityPlan]:
    """Capacity plans for several replica kinds over one shared trace."""
    return {spec.kind: capacity_plan(spec, requests, slo_ttft_s, percentile,
                                     max_replicas)
            for spec in specs}
