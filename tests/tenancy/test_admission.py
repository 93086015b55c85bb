"""Serving-layer tenancy: WFQ ordering, KV isolation, config checks."""

import json

import pytest

from repro.core.experiment import cpu_deployment
from repro.fleet.table import RequestTable
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving import (
    ContinuousBatchingScheduler,
    OutcomeLog,
    ServeRequest,
    TenancyConfig,
)

#: Scheduler classes the parametrized tests run against; each test id
#: carries the class name.
SCHEDULERS = [ContinuousBatchingScheduler]


def make_scheduler(tenancy=None, kv_tokens=4096, max_batch=4, lookahead=0,
                   scheduler_cls=ContinuousBatchingScheduler):
    return scheduler_cls(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=kv_tokens, max_batch=max_batch,
        admission_lookahead=lookahead, tenancy=tenancy)


def request(rid, arrival, prompt=128, output=32, tenant=0):
    return ServeRequest(request_id=rid, arrival_s=arrival,
                        prompt_tokens=prompt, output_tokens=output,
                        tenant_id=tenant)


class TestConfigValidation:
    def test_defaults_are_fcfs_shared(self):
        config = TenancyConfig()
        assert config.admission == "fcfs"
        assert config.kv_isolation == "shared"
        assert config.weight_of(99) == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="admission"):
            TenancyConfig(admission="lottery")
        with pytest.raises(ValueError, match="kv_isolation"):
            TenancyConfig(kv_isolation="banked")
        with pytest.raises(ValueError, match="duplicate"):
            TenancyConfig(weights=((0, 1.0), (0, 2.0)))
        with pytest.raises(ValueError, match="positive"):
            TenancyConfig(weights=((0, 0.0),))
        with pytest.raises(ValueError, match="requires partition_shares"):
            TenancyConfig(kv_isolation="partition")
        with pytest.raises(ValueError, match="sum"):
            TenancyConfig(kv_isolation="partition",
                          partition_shares=((0, 0.7), (1, 0.6)))

    def test_partition_budgets_conserve_blocks(self):
        config = TenancyConfig(kv_isolation="partition",
                               partition_shares=((0, 1 / 3), (1, 1 / 3),
                                                 (2, 1 / 3)))
        budgets = config.partition_budgets(100)
        assert sum(budgets.values()) <= 100
        assert min(budgets.values()) >= 33

    def test_state_round_trip(self):
        config = TenancyConfig(admission="wfq", weights=((0, 2.5),),
                               kv_isolation="shared-prefix",
                               prefix_tokens=((0, 64),))
        payload = json.loads(json.dumps(config.to_state()))
        assert TenancyConfig.from_state(payload) == config


class TestWfqOrdering:
    def test_heavier_weight_admitted_first(self):
        """Two same-size backlogged requests: the heavier tenant's tag
        is smaller, so it is admitted ahead of arrival order."""
        tenancy = TenancyConfig(admission="wfq",
                                weights=((0, 1.0), (1, 10.0)))
        scheduler = make_scheduler(tenancy=tenancy, max_batch=1)
        report = scheduler.run([
            request(0, 0.0, tenant=0),
            request(1, 0.0, tenant=0),   # queued behind request 0
            request(2, 0.01, tenant=1),  # heavier: overtakes request 1
        ])
        first = {o.request.request_id: o.first_token_s
                 for o in report.outcomes}
        assert first[2] < first[1]

    def test_fcfs_when_unarmed(self):
        scheduler = make_scheduler(max_batch=1)
        report = scheduler.run([request(0, 0.0), request(1, 0.0),
                                request(2, 0.01)])
        first = {o.request.request_id: o.first_token_s
                 for o in report.outcomes}
        assert first[1] < first[2]

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_negative_tenant_rejected(self, scheduler_cls):
        with pytest.raises(ValueError, match="tenant"):
            request(0, 0.0, tenant=-1)


class TestKvIsolation:
    def test_partition_blocks_unknown_tenant(self):
        tenancy = TenancyConfig(kv_isolation="partition",
                                partition_shares=((0, 1.0),))
        scheduler = make_scheduler(tenancy=tenancy)
        with pytest.raises(ValueError, match="tenant"):
            scheduler.run([request(0, 0.0, tenant=7)])

    def test_partition_caps_tenant(self):
        """A tenant can never exceed its worst-case block budget."""
        tenancy = TenancyConfig(kv_isolation="partition",
                                partition_shares=((0, 0.25), (1, 0.75)))
        scheduler = make_scheduler(tenancy=tenancy, kv_tokens=2048)
        # Tenant 0's budget is 32 blocks = 512 tokens worst case.
        with pytest.raises(ValueError, match="partition holds"):
            scheduler.run([request(0, 0.0, prompt=600, output=64, tenant=0)])

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_partition_never_preempts(self, scheduler_cls):
        tenancy = TenancyConfig(kv_isolation="partition",
                                partition_shares=((0, 0.5), (1, 0.5)))
        scheduler = make_scheduler(tenancy=tenancy, kv_tokens=2048,
                                   max_batch=4, scheduler_cls=scheduler_cls)
        requests = [request(i, 0.05 * i, prompt=120, output=60, tenant=i % 2)
                    for i in range(12)]
        report = scheduler.run(requests)
        assert len(report.outcomes) == 12
        assert scheduler.preemptions == 0

    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_shared_prefix_hits_and_misses(self, scheduler_cls):
        tenancy = TenancyConfig(kv_isolation="shared-prefix",
                                prefix_tokens=((0, 64),))
        scheduler = make_scheduler(tenancy=tenancy,
                                   scheduler_cls=scheduler_cls)
        scheduler.run([request(i, 0.1 * i, tenant=0) for i in range(6)])
        assert scheduler.prefix_misses == 1  # first request pins
        assert scheduler.prefix_hits == 5
        # The pin stays resident after the run (4 blocks for 64 tokens);
        # evacuation returns the pool whole.
        total = scheduler.num_blocks
        assert scheduler.kv_free_fraction == (total - 4) / total
        scheduler.evacuate()
        assert scheduler.kv_free_fraction == 1.0

    def test_shared_prefix_unconfigured_tenant_plain(self):
        tenancy = TenancyConfig(kv_isolation="shared-prefix",
                                prefix_tokens=((0, 64),))
        scheduler = make_scheduler(tenancy=tenancy)
        scheduler.run([request(i, 0.1 * i, tenant=1) for i in range(3)])
        assert scheduler.prefix_misses == 0
        assert scheduler.prefix_hits == 0


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("scheduler_cls", SCHEDULERS)
    def test_wfq_prefix_snapshot_mid_run(self, scheduler_cls):
        tenancy = TenancyConfig(admission="wfq",
                                weights=((0, 3.0), (1, 1.0)),
                                kv_isolation="shared-prefix",
                                prefix_tokens=((0, 48),))
        requests = [request(i, 0.2 * i, prompt=100 + 7 * i, output=24,
                            tenant=i % 2) for i in range(10)]

        baseline = make_scheduler(tenancy=tenancy, max_batch=2,
                                  scheduler_cls=scheduler_cls)
        full = baseline.run(list(requests))

        table = RequestTable.from_requests(requests)
        live = make_scheduler(tenancy=tenancy, max_batch=2,
                              scheduler_cls=scheduler_cls)
        live.bind(table)
        for row in table.arrival_order().tolist():
            live.submit(row)
        live.step(until_s=1.0)
        payload = json.loads(json.dumps(
            {"scheduler": live.to_state(),
             "outcomes": live.outcomes.to_state()}))
        revived = make_scheduler(tenancy=tenancy, max_batch=2,
                                 scheduler_cls=scheduler_cls)
        revived.bind(table, OutcomeLog.from_state(payload["outcomes"],
                                                  len(table)))
        revived.from_state(payload["scheduler"])
        revived.step()
        resumed = revived.report()
        assert len(resumed.outcomes) == len(full.outcomes)
        for mine, theirs in zip(resumed.outcomes, full.outcomes):
            assert (mine.request, mine.first_token_s, mine.finish_s,
                    mine.preemptions) == (theirs.request,
                                          theirs.first_token_s,
                                          theirs.finish_s,
                                          theirs.preemptions)
        assert resumed.makespan_s == full.makespan_s

    def test_unarmed_snapshot_has_no_tenancy_key(self):
        scheduler = make_scheduler()
        scheduler.run([request(0, 0.0)])
        assert "tenancy" not in scheduler.to_state()
        assert "tenancy" not in scheduler.config_fingerprint()
