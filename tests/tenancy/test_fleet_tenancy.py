"""Fleet-level tenancy: spec identity, counters, shed order, inflation."""

import pytest

from repro.faults import DegradationPolicy, RetryPolicy, mtbf_schedule
from repro.fleet import fixed_fleet, replica_spec
from repro.serving import TenancyConfig
from repro.state.errors import StateIntegrityError
from repro.tenancy import (
    TenantPopulation,
    TenantSpec,
    noisy_neighbor_inflation,
    run_tenant_fleet,
    tenant_breakdown,
)


def population(seed=7):
    return TenantPopulation((
        TenantSpec(tenant_id=0, name="a", requests=14, rate_per_s=2.0,
                   arrival="mmpp", mean_prompt=192, weight=4.0, priority=0,
                   prefix_tokens=48),
        TenantSpec(tenant_id=1, name="b", requests=8, rate_per_s=1.2,
                   weight=1.0, priority=2),
    ), seed=seed)


class TestSpecIdentity:
    def test_fingerprint_tenancy_key_only_when_armed(self):
        plain = replica_spec("tdx")
        armed = replica_spec(
            "tdx", tenancy=TenancyConfig(admission="wfq"))
        fleet = fixed_fleet(plain, 1)
        assert "tenancy" not in fleet.replicas[0].spec_fingerprint()
        fleet = fixed_fleet(armed, 1)
        assert (fleet.replicas[0].spec_fingerprint()["tenancy"]["admission"]
                == "wfq")

    def test_restore_refuses_tenancy_mismatch(self):
        armed = replica_spec("tdx", tenancy=TenancyConfig(admission="wfq"))
        fleet = fixed_fleet(armed, 1)
        snapshot = fleet.to_state()
        other = fixed_fleet(replica_spec("tdx"), 1)
        with pytest.raises(StateIntegrityError, match="different spec"):
            other.from_state(snapshot)


class TestReportCounters:
    def test_replica_usage_carries_prefix_counters(self):
        report = run_tenant_fleet(population(), kind="tdx", count=2,
                                  admission="fcfs",
                                  kv_isolation="shared-prefix",
                                  max_batch=8, kv_capacity_tokens=16384)
        assert report.prefix_misses == 2  # tenant 0 pins on each replica
        assert report.prefix_hits > 0
        rows = [u.to_dict() for u in report.fleet.replicas]
        assert all("prefix_hits" in row for row in rows)

    def test_breakdown_partitions_requests_and_bill(self):
        pop = population()
        report = run_tenant_fleet(pop, kind="tdx", count=2,
                                  admission="wfq",
                                  max_batch=8, kv_capacity_tokens=16384)
        assert sum(u.requests for u in report.tenants) == pop.total_requests
        assert report.total_bill_cents == round(
            report.fleet.cost_usd * 100)


class TestShedPriorityOrder:
    def test_shed_ledger_lowest_priority_first(self):
        pop = population()
        spec = replica_spec(
            "tdx", max_batch=8, kv_capacity_tokens=16384,
            tenancy=pop.tenancy_config(admission="fcfs"))
        kwargs = {
            "faults": mtbf_schedule([0, 1], mtbf_s=1.5, horizon_s=60.0,
                                    seed=9),
            "retry_policy": RetryPolicy(timeout_s=8.0, max_attempts=2,
                                        seed=9),
            "degradation": DegradationPolicy(mode="shed", max_hold_s=1.0),
        }
        report = fixed_fleet(spec, 2, **kwargs).run(pop.table())
        by_instant = {}
        for shed in report.shed:
            if shed.reason == "degraded":
                by_instant.setdefault(shed.time_s, []).append(
                    (shed.request.priority, shed.request.request_id))
        assert by_instant, "regime degraded-shed nothing; test is vacuous"
        for batch in by_instant.values():
            assert batch == sorted(batch)
        # The per-tenant split carries the same shed ledger.
        split = tenant_breakdown(report, pop)
        assert sum(u.shed for u in split.tenants) == len(report.shed)


class TestNoisyNeighbor:
    def test_inflation_covers_every_tenant(self):
        inflation = noisy_neighbor_inflation(
            population(), kind="tdx", count=1, admission="fcfs",
            max_batch=4, kv_capacity_tokens=8192)
        assert set(inflation) == {0, 1}
        assert all(value is None or value > 0
                   for value in inflation.values())
        # The shared run can only be as good as solo for the light
        # tenant sharing with a heavier neighbor.
        assert inflation[1] is not None and inflation[1] >= 1.0
