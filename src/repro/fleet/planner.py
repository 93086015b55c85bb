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


def capacity_sweep(**grid: object) -> dict[str, CapacityPlan]:
    """Capacity plans for several replica kinds over one shared trace.

    The rows of :func:`repro.state.points.capacity_grid` run inline and
    folded by :func:`repro.state.points.fold_capacity_rows`; keyword
    arguments are that grid's, and ``capacity_sweep(max_replicas=6)``
    reproduces the ``golden.fleet_capacity`` snapshot.  Each kind's
    fleet grows one replica at a time and stops at the first size that
    meets the SLO (the metamorphic audit checks that growing the fleet
    never hurts the tail, so the first hit is the minimum).

    Raises:
        repro.state.errors.StateValueError: On a bad grid (unknown
            kind, SLO, percentile, fleet size or stream), before any
            fleet runs.
    """
    from ..state.points import capacity_grid, fold_capacity_rows
    from ..state.runner import SweepRunner

    spec = capacity_grid(**grid)
    return fold_capacity_rows(spec, SweepRunner.create(None, spec).run())
