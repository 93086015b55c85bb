"""Per-tenant billing: an exact partition of the fleet bill.

The fleet bill (:attr:`repro.fleet.report.FleetReport.cost_usd`) is a
float sum of per-replica instance-hour charges.  Splitting it
proportionally among tenants in floats would leak or mint fractional
cents; invoices must *partition* the bill exactly.  This module
attributes the bill in integer cents with the largest-remainder
method: every tenant gets the floor of its proportional share, and the
leftover cents go to the tenants with the largest fractional
remainders (ties broken toward the lower tenant id).  The per-tenant
ledgers therefore always sum to ``round(total_usd * 100)`` — the
invariant the ``tenancy.billing_conservation`` audit check pins across
fault and spill regimes.
"""

from __future__ import annotations

import math

from .. import guards

def partition_bill_cents(total_usd: float,
                         tokens_by_tenant: dict[int, int]) -> dict[int, int]:
    """Split a fleet bill into per-tenant integer cents, exactly.

    Attribution is proportional to each tenant's completed (good)
    tokens.  Tenants with zero tokens are billed zero — except when
    *no* tenant produced tokens, in which case the bill is split
    evenly (everyone shared the idle fleet).

    Args:
        total_usd: The fleet bill (must be finite and >= 0).
        tokens_by_tenant: Good tokens per tenant id.

    Returns:
        Cents per tenant id, summing to ``round(total_usd * 100)``.
    """
    guards.finite("total_usd", total_usd, ge=0)
    if not tokens_by_tenant:
        raise ValueError("tokens_by_tenant must not be empty")
    for tenant, tokens in tokens_by_tenant.items():
        guards.count(f"tokens of tenant {tenant}", tokens, ge=0)
    total_cents = round(total_usd * 100)
    tenants = sorted(tokens_by_tenant)
    total_tokens = sum(tokens_by_tenant.values())
    if total_tokens == 0:
        # Idle fleet: even split, remainder cents to the lowest ids.
        base, leftover = divmod(total_cents, len(tenants))
        return {tenant: base + (1 if rank < leftover else 0)
                for rank, tenant in enumerate(tenants)}
    shares = {tenant: total_cents * tokens_by_tenant[tenant] / total_tokens
              for tenant in tenants}
    cents = {tenant: math.floor(shares[tenant]) for tenant in tenants}
    leftover = total_cents - sum(cents.values())
    # Largest fractional remainder first; ties toward the lower id.
    by_remainder = sorted(tenants,
                          key=lambda t: (-(shares[t] - cents[t]), t))
    for tenant in by_remainder[:leftover]:
        cents[tenant] += 1
    return cents
