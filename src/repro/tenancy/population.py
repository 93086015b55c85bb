"""Tenant populations: who shares the confidential fleet, and how much.

A :class:`TenantSpec` describes one customer of a multi-tenant serving
plane — its arrival process, request-size distribution, WFQ weight,
priority class, and TTFT SLO.  A :class:`TenantPopulation` composes
several specs into one deterministic request stream: each tenant draws
from its own seeded RNG (so adding or removing a tenant never perturbs
the others' requests), and the per-tenant streams are merged by
``(arrival_s, tenant_id, local_index)`` with global request ids
assigned in merge order.

:meth:`~TenantPopulation.table` builds the merged stream as the
columnar :class:`~repro.fleet.table.RequestTable` the fleet runs on
(``list(population.table())`` gives request objects).  Each tenant's
draws come from :func:`~repro.fleet.arrivals.make_arrival_table`, so a
single-tenant population replays that generator exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import guards
from ..fleet.arrivals import ARRIVAL_KINDS, make_arrival_table
from ..fleet.table import RequestTable
from ..serving.admission import TenancyConfig


def _tenant_seed(seed: int, tenant_id: int) -> int:
    """Derived per-tenant RNG seed (stable under population edits)."""
    return (seed * 1_000_003 + 7919 * (tenant_id + 1)) % (2 ** 63)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a shared serving plane.

    Attributes:
        tenant_id: Population-unique id (>= 0).
        name: Human label for reports.
        requests: Requests this tenant submits over the run.
        rate_per_s: Tenant arrival rate (``mmpp`` reads it as the calm
            rate with a 3x burst, matching
            :func:`repro.fleet.arrivals.make_arrival_table`).
        arrival: One of :data:`repro.fleet.arrivals.ARRIVAL_KINDS`.
        mean_prompt: Mean prompt length (lognormal sizes).
        mean_output: Mean output length.
        weight: WFQ weight (relative service share).
        priority: Scheduler priority class (lower sheds last).
        slo_ttft_s: Per-tenant TTFT target for SLO attainment.
        prefix_tokens: Shared prompt prefix pinned under
            ``shared-prefix`` KV isolation (0 = none).
    """

    tenant_id: int
    name: str
    requests: int
    rate_per_s: float
    arrival: str = "poisson"
    mean_prompt: int = 256
    mean_output: int = 96
    weight: float = 1.0
    priority: int = 0
    slo_ttft_s: float = 2.0
    prefix_tokens: int = 0

    def __post_init__(self) -> None:
        guards.count("tenant_id", self.tenant_id, ge=0)
        guards.count("requests", self.requests, ge=1)
        guards.finite("rate_per_s", self.rate_per_s, gt=0)
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.arrival!r}; "
                             f"expected one of {ARRIVAL_KINDS}")
        guards.count("mean_prompt", self.mean_prompt, ge=1)
        guards.count("mean_output", self.mean_output, ge=1)
        guards.finite("weight", self.weight, gt=0)
        guards.count("priority", self.priority)
        guards.finite("slo_ttft_s", self.slo_ttft_s, gt=0)
        guards.count("prefix_tokens", self.prefix_tokens, ge=0)


@dataclass(frozen=True)
class TenantPopulation:
    """A deterministic multi-tenant workload.

    Attributes:
        tenants: The tenant specs (unique ids, any order).
        seed: Base seed; each tenant derives its own stream seed so
            populations compose without RNG cross-talk.
    """

    tenants: tuple[TenantSpec, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("population needs at least one tenant")
        ids = [spec.tenant_id for spec in self.tenants]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate tenant ids in population")

    # -- lookups --------------------------------------------------------------

    def spec_of(self, tenant_id: int) -> TenantSpec:
        for spec in self.tenants:
            if spec.tenant_id == tenant_id:
                return spec
        raise KeyError(f"no tenant {tenant_id} in population")

    @property
    def tenant_ids(self) -> tuple[int, ...]:
        return tuple(sorted(spec.tenant_id for spec in self.tenants))

    @property
    def total_requests(self) -> int:
        return sum(spec.requests for spec in self.tenants)

    # -- stream ---------------------------------------------------------------

    def table(self) -> RequestTable:
        """The merged request stream.

        Each tenant's stream is :func:`make_arrival_table` on its
        derived seed; the streams are concatenated, ordered with a
        stable ``np.lexsort`` over ``(arrival, tenant, local index)``,
        and given global ids 0..n-1 in merge order.
        """
        ordered = sorted(self.tenants, key=lambda s: s.tenant_id)
        tables = [make_arrival_table(
            spec.arrival, spec.requests, spec.rate_per_s, spec.mean_prompt,
            spec.mean_output, seed=_tenant_seed(self.seed, spec.tenant_id))
            for spec in ordered]
        arrivals = np.concatenate([t.arrival_s for t in tables])
        locals_ = np.concatenate([t.request_id for t in tables])
        tenants = np.repeat([spec.tenant_id for spec in ordered],
                            [len(t) for t in tables])
        priorities = np.repeat([spec.priority for spec in ordered],
                               [len(t) for t in tables])
        order = np.lexsort((locals_, tenants, arrivals))
        return RequestTable(
            request_id=np.arange(len(order), dtype=np.int64),
            arrival_s=arrivals[order],
            prompt_tokens=np.concatenate(
                [t.prompt_tokens for t in tables])[order],
            output_tokens=np.concatenate(
                [t.output_tokens for t in tables])[order],
            priority=priorities[order],
            tenant_id=tenants[order])

    # -- policy builder -------------------------------------------------------

    def tenancy_config(self, admission: str = "wfq",
                       kv_isolation: str = "shared") -> TenancyConfig:
        """The serving-layer policy this population implies.

        WFQ weights come from the specs; ``shared-prefix`` pins each
        tenant's configured prefix; ``partition`` carves the KV pool
        weight-proportionally (weights normalized to shares).
        """
        ordered = sorted(self.tenants, key=lambda s: s.tenant_id)
        weights = tuple((spec.tenant_id, spec.weight) for spec in ordered)
        prefixes = tuple((spec.tenant_id, spec.prefix_tokens)
                         for spec in ordered if spec.prefix_tokens > 0)
        shares: tuple[tuple[int, float], ...] = ()
        if kv_isolation == "partition":
            total = sum(spec.weight for spec in ordered)
            shares = tuple((spec.tenant_id, spec.weight / total)
                           for spec in ordered)
        return TenancyConfig(admission=admission, weights=weights,
                             kv_isolation=kv_isolation,
                             prefix_tokens=prefixes,
                             partition_shares=shares)

    def solo(self, tenant_id: int) -> "TenantPopulation":
        """A single-tenant population with identical per-tenant draws.

        The derived seed depends only on ``(seed, tenant_id)``, so the
        solo run replays exactly the requests this tenant submits in
        the shared run — the baseline for noisy-neighbor inflation.
        """
        return TenantPopulation((self.spec_of(tenant_id),), seed=self.seed)


def whale_mix(total_requests: int = 200, rate_per_s: float = 6.0,
              seed: int = 0, prefix_tokens: int = 0) -> TenantPopulation:
    """The paper-style heavy-tailed tenant mix: one whale, a long tail.

    The whale submits ~60% of all requests with 2x-sized prompts and a
    4x WFQ weight (it pays for priority); a mid-size tenant takes ~25%;
    three minnows split the rest at the default weight but a tighter
    SLO.  Request volume across tenants is Zipf-like — the regime where
    FCFS lets the whale starve the tail and WFQ is supposed to matter.
    """
    guards.count("total_requests", total_requests, ge=20)
    whale = int(total_requests * 0.60)
    mid = int(total_requests * 0.25)
    minnow = max(1, (total_requests - whale - mid) // 3)
    return TenantPopulation(tenants=(
        TenantSpec(tenant_id=0, name="whale", requests=whale,
                   rate_per_s=rate_per_s * 0.60, arrival="mmpp",
                   mean_prompt=512, mean_output=128, weight=4.0,
                   priority=0, slo_ttft_s=4.0, prefix_tokens=prefix_tokens),
        TenantSpec(tenant_id=1, name="mid", requests=mid,
                   rate_per_s=rate_per_s * 0.25, mean_prompt=256,
                   mean_output=96, weight=2.0, priority=1, slo_ttft_s=2.0,
                   prefix_tokens=prefix_tokens),
        TenantSpec(tenant_id=2, name="minnow-a", requests=minnow,
                   rate_per_s=rate_per_s * 0.05, mean_prompt=128,
                   mean_output=64, priority=2, slo_ttft_s=1.5),
        TenantSpec(tenant_id=3, name="minnow-b", requests=minnow,
                   rate_per_s=rate_per_s * 0.05, mean_prompt=128,
                   mean_output=64, priority=2, slo_ttft_s=1.5),
        TenantSpec(tenant_id=4, name="minnow-c", requests=minnow,
                   rate_per_s=rate_per_s * 0.05, mean_prompt=128,
                   mean_output=64, priority=2, slo_ttft_s=1.5),
    ), seed=seed)
