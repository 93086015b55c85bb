"""One-call multi-tenant fleet runs and the noisy-neighbor metric.

:func:`run_tenant_fleet` wires a :class:`~repro.tenancy.population
.TenantPopulation` through the whole stack: it builds the population's
:class:`~repro.serving.admission.TenancyConfig`, arms it on a priced
:class:`~repro.fleet.replica.ReplicaSpec`, runs the fleet on the
population's columnar request table, and returns the per-tenant
:class:`~repro.tenancy.report.TenancyReport`.

:func:`noisy_neighbor_inflation` is the interference metric the
headline experiment plots: each tenant's shared-fleet p99 TTFT divided
by its p99 TTFT on the same fleet *alone* (same derived RNG, so the
solo run replays exactly the tenant's shared-run requests).  1.0 means
perfect isolation; large values mean the tenant is paying for its
neighbors' load.
"""

from __future__ import annotations

from ..faults.schedule import FaultSchedule
from ..faults.resilience import DegradationPolicy, RetryPolicy
from ..fleet.cluster import DEFAULT_TICK_S, fixed_fleet
from ..fleet.replica import ReplicaSpec, replica_spec
from .population import TenantPopulation
from .report import TenancyReport, tenant_breakdown


def run_tenant_fleet(population: TenantPopulation,
                     kind: str = "tdx",
                     count: int = 2,
                     admission: str = "wfq",
                     kv_isolation: str = "shared",
                     tick_s: float = DEFAULT_TICK_S,
                     faults: FaultSchedule | None = None,
                     retry_policy: RetryPolicy | None = None,
                     degradation: DegradationPolicy | None = None,
                     **spec_overrides: object) -> TenancyReport:
    """Run a tenant population on a homogeneous confidential fleet.

    Args:
        population: Who shares the fleet.
        kind: Replica kind (``tdx``, ``cgpu``, ...).
        count: Fixed fleet size.
        admission: ``fcfs`` or ``wfq`` (population weights apply).
        kv_isolation: ``shared``, ``partition``, or ``shared-prefix``.
        tick_s: Fleet tick.
        faults: Optional fault schedule.
        retry_policy: Optional resilience policy (required by faults).
        degradation: Optional degradation/spill policy.
        **spec_overrides: Forwarded to :func:`replica_spec` (e.g.
            ``max_batch``, ``kv_capacity_tokens``).
    """
    tenancy = population.tenancy_config(admission=admission,
                                        kv_isolation=kv_isolation)
    spec = replica_spec(kind, tenancy=tenancy, **spec_overrides)
    return run_on_spec(population, spec, count=count, tick_s=tick_s,
                       faults=faults, retry_policy=retry_policy,
                       degradation=degradation)


def run_on_spec(population: TenantPopulation, spec: ReplicaSpec,
                count: int = 2,
                tick_s: float = DEFAULT_TICK_S,
                faults: FaultSchedule | None = None,
                retry_policy: RetryPolicy | None = None,
                degradation: DegradationPolicy | None = None,
                ) -> TenancyReport:
    """Run a population on an explicit (already-armed) spec."""
    fleet = fixed_fleet(spec, count, tick_s=tick_s, faults=faults,
                        retry_policy=retry_policy, degradation=degradation)
    report = fleet.run(population.table())
    return tenant_breakdown(report, population)


def noisy_neighbor_inflation(population: TenantPopulation,
                             kind: str = "tdx", count: int = 2,
                             admission: str = "wfq",
                             kv_isolation: str = "shared",
                             **spec_overrides: object,
                             ) -> dict[int, float | None]:
    """Per-tenant p99-TTFT inflation of the shared fleet vs running solo.

    For each tenant: run the whole population together, then run that
    tenant alone on an identical fleet (same spec, same derived RNG, so
    the solo stream replays the tenant's shared-run requests exactly),
    and divide the shared p99 TTFT by the solo p99 TTFT.  ``None``
    marks tenants that completed no requests in either run.
    """
    shared = run_tenant_fleet(population, kind=kind, count=count,
                              admission=admission,
                              kv_isolation=kv_isolation, **spec_overrides)
    inflation: dict[int, float | None] = {}
    for tenant_id in population.tenant_ids:
        shared_p99 = shared.usage_of(tenant_id).ttft_p99_s
        solo = run_tenant_fleet(population.solo(tenant_id), kind=kind,
                                count=count, admission=admission,
                                kv_isolation=kv_isolation, **spec_overrides)
        solo_p99 = solo.usage_of(tenant_id).ttft_p99_s
        if shared_p99 is None or solo_p99 is None or solo_p99 <= 0:
            inflation[tenant_id] = None
        else:
            inflation[tenant_id] = shared_p99 / solo_p99
    return inflation
