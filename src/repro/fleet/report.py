"""Fleet reports: SLO attainment and serving cost at cluster scale.

Joins per-request outcomes from every replica with per-replica billing
(:mod:`repro.cost.pricing` rates) into the paper's serving-economics
metrics: p50/p99 TTFT and end-to-end latency, SLO-attainment curves,
dollars per million generated tokens, and peak/mean fleet size.

Under fault injection (:mod:`repro.faults`) the report is
failure-aware: it separates goodput (tokens of completed requests)
from wasted work (tokens generated for attempts that were cancelled or
evacuated), attributes the fleet bill to each, carries the shed-request
ledger, and records the applied fault timeline.  All failure fields
default to empty so fault-free reports are unchanged.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .. import guards
from ..cost.pricing import attribute_cost
from ..faults.injector import AppliedFault
from ..faults.resilience import ShedRequest
from ..serving.scheduler import _percentile
from .autoscaler import ScaleEvent
from .table import ColumnarOutcomes


@dataclass(frozen=True)
class ReplicaUsage:
    """Billing and utilization summary of one fleet instance."""

    replica_id: int
    kind: str
    price_hr: float
    provisioned_s: float
    retired_s: float | None
    billed_hours: float
    cost_usd: float
    requests_served: int
    tokens_out: int
    crashes: int = 0
    prefix_hits: int = 0
    prefix_misses: int = 0

    def to_dict(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "kind": self.kind,
            "price_hr": self.price_hr,
            "provisioned_s": self.provisioned_s,
            "retired_s": self.retired_s,
            "billed_hours": self.billed_hours,
            "cost_usd": self.cost_usd,
            "requests_served": self.requests_served,
            "tokens_out": self.tokens_out,
            "crashes": self.crashes,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
        }


@dataclass(frozen=True)
class FleetReport:
    """Aggregate outcome of one fleet simulation.

    Attributes:
        outcomes: Per-request lifecycle records (completed requests
            only) in request-id order, as a
            :class:`~repro.fleet.table.ColumnarOutcomes` view whose
            items are :class:`~repro.serving.scheduler.RequestOutcome`
            records.
        start_s: Earliest arrival in the stream.
        end_s: Completion time of the last request.
        replicas: Billing summary per instance ever provisioned.
        scale_events: Autoscaler decision timeline (empty = fixed fleet).
        total_preemptions: Preempt-and-recompute events fleet-wide.
        peak_replicas: Most instances simultaneously billed.
        retries: Resubmissions after a crash, timeout, or attestation
            evacuation (first submissions are not retries).
        wasted_tokens: Tokens generated for attempts that did not
            complete (the work the fleet paid for but threw away).
        shed: Requests that left the system unserved, with reasons, in
            shed order (a :class:`~repro.fleet.table.ShedLog` view whose
            items are :class:`~repro.faults.resilience.ShedRequest`
            records).
        fault_events: Applied fault timeline, in injection order.
    """

    outcomes: ColumnarOutcomes
    start_s: float
    end_s: float
    replicas: tuple[ReplicaUsage, ...]
    scale_events: tuple[ScaleEvent, ...]
    total_preemptions: int
    peak_replicas: int
    retries: int = 0
    wasted_tokens: int = 0
    shed: Sequence[ShedRequest] = ()
    fault_events: tuple[AppliedFault, ...] = ()

    @property
    def makespan_s(self) -> float:
        """Busy window from first arrival to last completion."""
        return self.end_s - self.start_s

    @property
    def submitted(self) -> int:
        """Requests that entered the system (completed + shed)."""
        return len(self.outcomes) + len(self.shed)

    @property
    def tokens_out(self) -> int:
        """Goodput: tokens of completed requests."""
        return int(self.outcomes.output_tokens.sum())

    @property
    def throughput_tok_s(self) -> float:
        return self.tokens_out / self.makespan_s if self.makespan_s else 0.0

    @property
    def cost_usd(self) -> float:
        """Total fleet bill (instances pay from provisioning to retirement)."""
        return sum(usage.cost_usd for usage in self.replicas)

    @property
    def usd_per_mtok(self) -> float:
        """Dollars per million *good* tokens, fleet-wide.

        The numerator is the whole bill — including instance-hours
        spent on retried attempts — so this rises with failure rate.
        """
        if not self.tokens_out:
            raise ValueError("no tokens generated")
        return self.cost_usd / self.tokens_out * 1e6

    @property
    def goodput_cost_usd(self) -> float:
        """Share of the bill attributed to completed work."""
        return attribute_cost(self.cost_usd, self.tokens_out,
                              self.wasted_tokens)[0]

    @property
    def wasted_cost_usd(self) -> float:
        """Share of the bill attributed to discarded attempts."""
        return attribute_cost(self.cost_usd, self.tokens_out,
                              self.wasted_tokens)[1]

    def ttft_percentile(self, percentile: float) -> float:
        if not self.outcomes:
            raise ValueError("no completed requests")
        return _percentile(self.outcomes.ttft_values(), percentile)

    def e2e_percentile(self, percentile: float) -> float:
        if not self.outcomes:
            raise ValueError("no completed requests")
        return _percentile(self.outcomes.e2e_values(), percentile)

    def slo_attainment(self, slo_ttft_s: float) -> float:
        """Fraction of submitted requests whose TTFT met the SLO.

        Shed requests never produced a first token, so they count as
        misses — on a fault-free fleet nothing is shed and this is the
        plain completed-request fraction.

        Raises:
            ValueError: Unless ``slo_ttft_s`` is a finite positive real
                (not a bool), or when no request was submitted.
        """
        guards.finite("slo_ttft_s", slo_ttft_s, gt=0)
        if not self.submitted:
            raise ValueError("no requests submitted")
        met = int(np.count_nonzero(self.outcomes.ttft_values() <= slo_ttft_s))
        return met / self.submitted

    def slo_curve(self, slos_s: list[float]) -> dict[float, float]:
        """SLO-attainment curve over a grid of TTFT targets."""
        return {slo: self.slo_attainment(slo) for slo in slos_s}

    def to_dict(self) -> dict:
        """JSON-friendly summary (golden snapshots, CLI --json).

        Metrics undefined on a degenerate run (every request shed, or
        no tokens generated) are ``None`` rather than an exception.
        """
        completed = bool(self.outcomes)
        return {
            "requests": len(self.outcomes),
            "start_s": self.start_s,
            "end_s": self.end_s,
            "makespan_s": self.makespan_s,
            "throughput_tok_s": self.throughput_tok_s,
            "tokens_out": self.tokens_out,
            "cost_usd": self.cost_usd,
            "usd_per_mtok": self.usd_per_mtok if self.tokens_out else None,
            "ttft_p50_s": self.ttft_percentile(50) if completed else None,
            "ttft_p99_s": self.ttft_percentile(99) if completed else None,
            "e2e_p50_s": self.e2e_percentile(50) if completed else None,
            "e2e_p99_s": self.e2e_percentile(99) if completed else None,
            "total_preemptions": self.total_preemptions,
            "peak_replicas": self.peak_replicas,
            "scale_events": len(self.scale_events),
            "submitted": self.submitted,
            "retries": self.retries,
            "wasted_tokens": self.wasted_tokens,
            "shed_requests": len(self.shed),
            "goodput_cost_usd": self.goodput_cost_usd,
            "wasted_cost_usd": self.wasted_cost_usd,
            "fault_events": len(self.fault_events),
            "replicas": [usage.to_dict() for usage in self.replicas],
        }

    def summary_rows(self) -> list[dict]:
        """Per-replica table for CLI printing."""
        return [usage.to_dict() for usage in self.replicas]
