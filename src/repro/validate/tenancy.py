"""Multi-tenant serving-plane audit checks (the ``tenancy`` family).

The tenancy plane (:mod:`repro.tenancy` over
:mod:`repro.serving.admission`) adds weighted-fair queueing, KV
isolation modes, and per-tenant billing on top of the scheduler.  Its
acceptance contract: the tenant ledgers *exactly* partition the fleet
bill and conserve every submitted request across fault and degradation
regimes, WFQ favors heavier weights, and tenancy-armed runs resume
bit-identically.  The admission x isolation grid also runs through
``fleet.jump_parity``.

* ``tenancy.billing_conservation`` — per-tenant invoices in integer
  cents sum to ``round(cost_usd * 100)`` in every regime.
* ``tenancy.request_conservation`` — per tenant,
  ``completed + shed == submitted`` even under crashes and sheds.
* ``tenancy.wfq_fairness`` — under symmetric demand on a saturated
  replica, the heavier-weighted tenant sees the smaller p99 TTFT.
* ``tenancy.shed_priority_order`` — under mixed priority classes the
  degradation shed ledger drops lower priority classes first within
  each shed instant.
* ``tenancy.resume_parity`` — a WFQ-armed, prefix-sharing, faulted
  fleet snapshotted mid-run restores bit-identically.
"""

from __future__ import annotations

import json

from ..faults import DegradationPolicy, RetryPolicy, mtbf_schedule
from ..fleet import fixed_fleet, replica_spec
from ..tenancy import (
    TenantPopulation,
    TenantSpec,
    tenant_breakdown,
    whale_mix,
)
from .context import AuditContext
from .golden import _golden
from .registry import CheckFailure, check


def _population() -> TenantPopulation:
    """Small three-tenant mix: bursty anchor, steady mid, light tail."""
    return TenantPopulation((
        TenantSpec(tenant_id=0, name="anchor", requests=18, rate_per_s=2.4,
                   arrival="mmpp", mean_prompt=192, mean_output=48,
                   weight=4.0, priority=0, slo_ttft_s=3.0, prefix_tokens=48),
        TenantSpec(tenant_id=1, name="steady", requests=12, rate_per_s=1.6,
                   mean_prompt=128, mean_output=40, weight=2.0, priority=1,
                   slo_ttft_s=2.0, prefix_tokens=32),
        TenantSpec(tenant_id=2, name="tail", requests=6, rate_per_s=0.8,
                   mean_prompt=96, mean_output=32, weight=1.0, priority=2,
                   slo_ttft_s=1.5),
    ), seed=7)


def _spec(population: TenantPopulation, admission: str, kv_isolation: str):
    return replica_spec(
        "tdx", max_batch=8, kv_capacity_tokens=16384, admission_lookahead=2,
        tenancy=population.tenancy_config(admission=admission,
                                          kv_isolation=kv_isolation))


def _regimes(population: TenantPopulation):
    """(label, spec, fleet-kwargs) covering the policy grid and faults."""
    faulted = {
        "faults": mtbf_schedule([0, 1], mtbf_s=8.0, horizon_s=30.0, seed=5),
        "retry_policy": RetryPolicy(timeout_s=30.0, max_attempts=4, seed=5),
    }
    shedding = {
        **faulted,
        "degradation": DegradationPolicy(mode="shed", max_hold_s=4.0),
    }
    grid = [(f"{admission}/{isolation}",
             _spec(population, admission, isolation), {})
            for admission in ("fcfs", "wfq")
            for isolation in ("shared", "partition", "shared-prefix")]
    grid.append(("wfq/shared+faults",
                 _spec(population, "wfq", "shared"), faulted))
    grid.append(("fcfs/shared-prefix+faults",
                 _spec(population, "fcfs", "shared-prefix"), faulted))
    grid.append(("wfq/shared+shed",
                 _spec(population, "wfq", "shared"), shedding))
    return grid


@check("tenancy.billing_conservation", family="tenancy",
       layers=("tenancy", "fleet", "cost"))
def billing_conservation(ctx: AuditContext) -> str:
    """Per-tenant invoices partition the fleet bill to the cent in
    every regime, including faulted and shedding fleets."""
    population = _population()
    checked = 0
    for label, spec, fleet_kwargs in _regimes(population):
        report = fixed_fleet(spec, 2, **fleet_kwargs).run(population.table())
        split = tenant_breakdown(report, population)
        expected = round(report.cost_usd * 100)
        if split.total_bill_cents != expected:
            raise CheckFailure(
                f"{label}: tenant invoices sum to "
                f"{split.total_bill_cents}c, fleet bill is {expected}c",
                deltas={"diff_cents":
                        float(split.total_bill_cents - expected)})
        for usage in split.tenants:
            if usage.bill_cents < 0:
                raise CheckFailure(
                    f"{label}: tenant {usage.tenant_id} billed "
                    f"{usage.bill_cents}c")
            if usage.tokens_out == 0 and usage.bill_cents and any(
                    u.tokens_out for u in split.tenants):
                raise CheckFailure(
                    f"{label}: idle tenant {usage.tenant_id} billed "
                    f"{usage.bill_cents}c")
        checked += 1
    return f"bills partition exactly across {checked} regimes"


@check("tenancy.request_conservation", family="tenancy",
       layers=("tenancy", "fleet", "faults"))
def request_conservation(ctx: AuditContext) -> str:
    """Per tenant, completed + shed equals submitted in every regime —
    crashes and degradation never lose or invent a request."""
    population = _population()
    submitted = {spec.tenant_id: spec.requests
                 for spec in population.tenants}
    checked = 0
    for label, spec, fleet_kwargs in _regimes(population):
        report = fixed_fleet(spec, 2, **fleet_kwargs).run(population.table())
        split = tenant_breakdown(report, population)
        for usage in split.tenants:
            if usage.requests + usage.shed != submitted[usage.tenant_id]:
                raise CheckFailure(
                    f"{label}: tenant {usage.tenant_id} submitted "
                    f"{submitted[usage.tenant_id]} but completed "
                    f"{usage.requests} + shed {usage.shed}")
        checked += 1
    return f"request counts conserved per tenant across {checked} regimes"


@check("tenancy.wfq_fairness", family="tenancy",
       layers=("tenancy", "serving"))
def wfq_fairness(ctx: AuditContext) -> str:
    """With symmetric demand on a saturated replica, WFQ gives the
    heavier-weighted tenant the smaller p99 TTFT."""
    population = TenantPopulation((
        TenantSpec(tenant_id=0, name="heavy", requests=16, rate_per_s=6.0,
                   mean_prompt=256, mean_output=64, weight=8.0),
        TenantSpec(tenant_id=1, name="light", requests=16, rate_per_s=6.0,
                   mean_prompt=256, mean_output=64, weight=1.0),
    ), seed=13)
    spec = replica_spec(
        "tdx", max_batch=4, kv_capacity_tokens=8192,
        tenancy=population.tenancy_config(admission="wfq"))
    report = fixed_fleet(spec, 1).run(population.table())
    split = tenant_breakdown(report, population)
    heavy, light = split.usage_of(0), split.usage_of(1)
    if heavy.ttft_p99_s is None or light.ttft_p99_s is None:
        raise CheckFailure("a tenant completed no requests")
    if heavy.ttft_p99_s >= light.ttft_p99_s:
        raise CheckFailure(
            f"weight-8 tenant saw p99 TTFT {heavy.ttft_p99_s:.3f}s, "
            f"weight-1 tenant {light.ttft_p99_s:.3f}s — WFQ did not "
            f"favor the heavier weight",
            deltas={"heavy_p99_s": heavy.ttft_p99_s,
                    "light_p99_s": light.ttft_p99_s})
    return (f"p99 TTFT heavy {heavy.ttft_p99_s:.3f}s < light "
            f"{light.ttft_p99_s:.3f}s under 8:1 weights")


@check("tenancy.shed_priority_order", family="tenancy",
       layers=("tenancy", "fleet", "faults"))
def shed_priority_order(ctx: AuditContext) -> str:
    """Under mixed priority classes, every degradation shed instant
    drops lower priority classes first."""
    population = _population()
    spec = _spec(population, "fcfs", "shared")
    fleet_kwargs = {
        "faults": mtbf_schedule([0, 1], mtbf_s=1.5, horizon_s=60.0, seed=9),
        "retry_policy": RetryPolicy(timeout_s=8.0, max_attempts=2, seed=9),
        "degradation": DegradationPolicy(mode="shed", max_hold_s=1.0),
    }
    report = fixed_fleet(spec, 2, **fleet_kwargs).run(population.table())
    # Within one shed instant, lower priority classes go first.
    by_instant: dict[float, list[tuple[int, int]]] = {}
    for shed in report.shed:
        if shed.reason == "degraded":
            by_instant.setdefault(shed.time_s, []).append(
                (shed.request.priority, shed.request.request_id))
    for time_s, batch in by_instant.items():
        if batch != sorted(batch):
            raise CheckFailure(
                f"shed batch at t={time_s:.2f}s not in priority order: "
                f"{batch}")
    if not by_instant:
        raise CheckFailure("regime degraded-shed nothing; check is vacuous")
    return (f"{len(report.shed)}-entry shed ledger priority-ordered "
            f"across {len(by_instant)} shed instants")


@check("tenancy.resume_parity", family="tenancy",
       layers=("tenancy", "fleet", "state"))
def resume_parity(ctx: AuditContext) -> str:
    """A WFQ-armed, prefix-sharing, faulted fleet snapshotted mid-run
    restores bit-identically."""
    population = _population()
    spec = _spec(population, "wfq", "shared-prefix")
    fleet_kwargs = {
        "faults": mtbf_schedule([0, 1], mtbf_s=8.0, horizon_s=30.0, seed=5),
        "retry_policy": RetryPolicy(timeout_s=30.0, max_attempts=4, seed=5),
    }
    requests = population.table()

    def fleet():
        return fixed_fleet(spec, 2, **fleet_kwargs)

    baseline = fleet().run(requests)
    running = fleet()
    running.begin_run(requests)
    for _ in range(40):
        if not running.run_active:
            break
        running.run_tick()
    payload = json.loads(json.dumps(running.to_state()))
    fresh = fleet()
    fresh.from_state(payload)
    while fresh.run_active:
        fresh.run_tick()
    a, b = baseline.to_dict(), fresh.finish_run().to_dict()
    if a != b:
        diverged = [key for key in a if a[key] != b.get(key)]
        raise CheckFailure(
            f"resumed WFQ run diverged from baseline in {diverged[:4]}")
    # Snapshotting must not perturb the running fleet either.
    while running.run_active:
        running.run_tick()
    if running.finish_run().to_dict() != a:
        raise CheckFailure("taking the snapshot perturbed the run")
    return (f"WFQ+prefix+faulted run resumes exactly "
            f"({a['requests']} requests)")


# -- golden headline: the whale-mix fairness/billing snapshot -----------------

@_golden("tenant_mix", "Whale-mix per-tenant $/Mtok and p99 TTFT "
         "(WFQ, shared-prefix, 2x TDX)", layers=("tenancy", "fleet"))
def tenant_mix_series(ctx: AuditContext) -> dict[str, float]:
    population = whale_mix(total_requests=80, rate_per_s=6.0, seed=3,
                           prefix_tokens=64)
    spec = replica_spec(
        "tdx", max_batch=8, kv_capacity_tokens=16384,
        tenancy=population.tenancy_config(admission="wfq",
                                          kv_isolation="shared-prefix"))
    report = fixed_fleet(spec, 2).run(population.table())
    split = tenant_breakdown(report, population)
    series: dict[str, float] = {
        "total_bill_cents": float(split.total_bill_cents),
        "prefix_hits": float(split.prefix_hits),
        "ttft_p99_spread": float(split.ttft_p99_spread()),
    }
    for usage in split.tenants:
        series[f"{usage.name}_bill_cents"] = float(usage.bill_cents)
        series[f"{usage.name}_ttft_p99_s"] = float(usage.ttft_p99_s)
    return series
