"""Per-tenant slice of a fleet report: SLOs, fairness, and invoices.

:func:`tenant_breakdown` splits a
:class:`~repro.fleet.report.FleetReport` by tenant into
:class:`TenantUsage` rows — latency percentiles against each tenant's
own SLO, shed counts, and an integer-cent invoice that exactly
partitions the fleet bill (:mod:`repro.tenancy.billing`).  The split
masks the report's :class:`~repro.fleet.table.ColumnarOutcomes`
columns per tenant and runs the shared percentile over each slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fleet.report import FleetReport
from ..fleet.table import ColumnarOutcomes
from ..serving.scheduler import _percentile
from .billing import partition_bill_cents
from .population import TenantPopulation


@dataclass(frozen=True)
class TenantUsage:
    """One tenant's outcome summary over a shared-fleet run.

    Latency fields are ``None`` when the tenant completed no requests;
    ``slo_attainment`` counts shed requests as misses, mirroring
    :meth:`repro.fleet.report.FleetReport.slo_attainment`.
    """

    tenant_id: int
    name: str
    requests: int
    shed: int
    tokens_out: int
    preemptions: int
    slo_ttft_s: float
    ttft_p50_s: float | None
    ttft_p99_s: float | None
    e2e_p99_s: float | None
    slo_attainment: float | None
    bill_cents: int

    @property
    def submitted(self) -> int:
        return self.requests + self.shed

    @property
    def usd_per_mtok(self) -> float | None:
        """Invoice dollars per million good tokens (None if idle)."""
        if not self.tokens_out:
            return None
        return self.bill_cents / 100.0 / self.tokens_out * 1e6

    def to_dict(self) -> dict:
        return {
            "tenant_id": self.tenant_id,
            "name": self.name,
            "requests": self.requests,
            "shed": self.shed,
            "tokens_out": self.tokens_out,
            "preemptions": self.preemptions,
            "slo_ttft_s": self.slo_ttft_s,
            "ttft_p50_s": self.ttft_p50_s,
            "ttft_p99_s": self.ttft_p99_s,
            "e2e_p99_s": self.e2e_p99_s,
            "slo_attainment": self.slo_attainment,
            "bill_cents": self.bill_cents,
            "usd_per_mtok": self.usd_per_mtok,
        }


@dataclass(frozen=True)
class TenancyReport:
    """A fleet report refracted through its tenant population."""

    fleet: FleetReport
    tenants: tuple[TenantUsage, ...]

    @property
    def total_bill_cents(self) -> int:
        """Sum of tenant invoices == ``round(fleet.cost_usd * 100)``."""
        return sum(usage.bill_cents for usage in self.tenants)

    @property
    def prefix_hits(self) -> int:
        return sum(usage.prefix_hits for usage in self.fleet.replicas)

    @property
    def prefix_misses(self) -> int:
        return sum(usage.prefix_misses for usage in self.fleet.replicas)

    def usage_of(self, tenant_id: int) -> TenantUsage:
        for usage in self.tenants:
            if usage.tenant_id == tenant_id:
                return usage
        raise KeyError(f"no tenant {tenant_id} in report")

    def ttft_p99_spread(self) -> float | None:
        """Max/min ratio of per-tenant p99 TTFT — the fairness number.

        1.0 means every tenant sees the same tail latency; large values
        mean somebody is eating the queueing delay.  ``None`` when
        fewer than two tenants completed requests.
        """
        values = [usage.ttft_p99_s for usage in self.tenants
                  if usage.ttft_p99_s is not None]
        if len(values) < 2 or min(values) <= 0:
            return None
        return max(values) / min(values)

    def to_dict(self) -> dict:
        return {
            "fleet": self.fleet.to_dict(),
            "tenants": [usage.to_dict() for usage in self.tenants],
            "total_bill_cents": self.total_bill_cents,
            "prefix_hits": self.prefix_hits,
            "prefix_misses": self.prefix_misses,
            "ttft_p99_spread": self.ttft_p99_spread(),
        }


def _tenant_slice(outcomes: ColumnarOutcomes, tenant_id: int) -> dict:
    mask = outcomes.tenant_id == tenant_id
    count = int(np.count_nonzero(mask))
    if not count:
        return {"requests": 0, "tokens_out": 0, "preemptions": 0,
                "ttft": None, "e2e": None}
    return {
        "requests": count,
        "tokens_out": int(outcomes.output_tokens[mask].sum()),
        "preemptions": int(outcomes.preemptions[mask].sum()),
        "ttft": outcomes.ttft_values()[mask],
        "e2e": outcomes.e2e_values()[mask],
    }


def tenant_breakdown(report: FleetReport,
                     population: TenantPopulation) -> TenancyReport:
    """Split a fleet report into per-tenant usage rows.

    The invoice column partitions ``report.cost_usd`` exactly (integer
    cents, largest-remainder over good tokens); percentiles match the
    fleet report's own math bit-for-bit.
    """
    shed_by_tenant: dict[int, int] = {}
    for shed in report.shed:
        shed_by_tenant[shed.request.tenant_id] = (
            shed_by_tenant.get(shed.request.tenant_id, 0) + 1)
    tenants = sorted(population.tenants, key=lambda s: s.tenant_id)
    slices = {spec.tenant_id: _tenant_slice(report.outcomes, spec.tenant_id)
              for spec in tenants}
    invoices = partition_bill_cents(
        report.cost_usd,
        {tenant_id: data["tokens_out"]
         for tenant_id, data in slices.items()})
    usages = []
    for spec in tenants:
        data = slices[spec.tenant_id]
        shed = shed_by_tenant.get(spec.tenant_id, 0)
        ttft_p50 = ttft_p99 = e2e_p99 = attainment = None
        if data["requests"]:
            ttft_p50 = _percentile(data["ttft"], 50)
            ttft_p99 = _percentile(data["ttft"], 99)
            e2e_p99 = _percentile(data["e2e"], 99)
            met = int(np.count_nonzero(data["ttft"] <= spec.slo_ttft_s))
            attainment = met / (data["requests"] + shed)
        elif shed:
            attainment = 0.0
        usages.append(TenantUsage(
            tenant_id=spec.tenant_id, name=spec.name,
            requests=data["requests"], shed=shed,
            tokens_out=data["tokens_out"],
            preemptions=data["preemptions"],
            slo_ttft_s=spec.slo_ttft_s,
            ttft_p50_s=ttft_p50, ttft_p99_s=ttft_p99, e2e_p99_s=e2e_p99,
            slo_attainment=attainment,
            bill_cents=invoices[spec.tenant_id]))
    return TenancyReport(fleet=report, tenants=tuple(usages))
