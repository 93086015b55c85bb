"""One request representation: a row of the run's RequestTable.

Between ``begin_run`` and the report, the fleet carries every request
as a row — no :class:`ServeRequest` is built, whatever the regime — and
the object-list entry points convert once, at the boundary, so they
report exactly what the equivalent table does.  A mid-run snapshot taken
while rows sit in every holding place (waiting, running, held, retry
queue) restores to the uninterrupted report.
"""

import json

import pytest

from repro.core.experiment import cpu_deployment
from repro.faults import FaultEvent, FaultSchedule, RetryPolicy
from repro.fleet import (
    Replica,
    RequestTable,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving import ContinuousBatchingScheduler, TenancyConfig
from repro.serving.scheduler import ServeRequest, poisson_stream
from repro.tee import boot_profile
from repro.tenancy import whale_mix

TDX = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)


def _plain():
    return fixed_fleet(TDX, 8), poisson_table(400, 60.0, mean_prompt=128,
                                              mean_output=32, seed=1)


def _chaos():
    # A crash with a reboot evacuates in-flight work; the short timeout
    # cancels slow attempts; both paths retry with backoff.
    faults = FaultSchedule([FaultEvent(3.0, "crash", 0,
                                       restart_after_s=5.0)])
    fleet = fixed_fleet(replica_spec("tdx", max_batch=4,
                                     kv_capacity_tokens=8192), 2,
                        faults=faults,
                        retry_policy=RetryPolicy(timeout_s=4.0,
                                                 max_attempts=6, seed=2))
    return fleet, poisson_table(60, 6.0, mean_prompt=128, mean_output=48,
                                seed=3)


def _tenancy():
    population = whale_mix(120, 4.0, seed=4, prefix_tokens=64)
    tenancy = population.tenancy_config(admission="wfq",
                                        kv_isolation="shared-prefix")
    spec = replica_spec("tdx", tenancy=tenancy, boot=boot_profile("tdx"))
    return fixed_fleet(spec, 2), population.table()


class TestNoRequestObjectsInARun:
    @pytest.mark.parametrize("regime", [_plain, _chaos, _tenancy],
                             ids=["plain-8xtdx", "chaos", "wfq-prefix-boot"])
    def test_no_serve_request_built_during_run(self, regime, monkeypatch):
        fleet, table = regime()
        built = [0]
        cancelled = [0]
        post_init = ServeRequest.__post_init__
        cancel = Replica.cancel

        def counting_post_init(self):
            built[0] += 1
            post_init(self)

        def counting_cancel(self, row):
            generated = cancel(self, row)
            cancelled[0] += generated is not None
            return generated

        monkeypatch.setattr(ServeRequest, "__post_init__",
                            counting_post_init)
        monkeypatch.setattr(Replica, "cancel", counting_cancel)
        report = fleet.run(table)
        assert built[0] == 0
        assert len(report.outcomes) + len(report.shed) == len(table)
        if regime is _chaos:
            assert any("evacuated" in event.effect
                       and not event.effect.startswith("crash: evacuated 0")
                       for event in report.fault_events)
            assert cancelled[0] > 0  # timeouts fired
            assert report.retries > 0
        if regime is _tenancy:
            assert sum(r.prefix_hits for r in report.replicas) > 0


def _scheduler(admission):
    tenancy = (TenancyConfig(admission="wfq", weights=((0, 2.0), (1, 1.0)))
               if admission == "wfq" else None)
    return ContinuousBatchingScheduler(
        cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
        kv_capacity_tokens=1024, max_batch=16, tenancy=tenancy)


@pytest.mark.parametrize("admission", ["fcfs", "wfq"])
def test_scheduler_run_list_equals_table(admission):
    """``run(list)`` converts once and reports what the table run does."""
    requests = [ServeRequest(r.request_id, r.arrival_s, r.prompt_tokens,
                             r.output_tokens, tenant_id=r.request_id % 2)
                for r in poisson_stream(40, 20.0, mean_prompt=96,
                                        mean_output=160, seed=5)]
    from_list = _scheduler(admission).run(requests)
    from_table = _scheduler(admission).run(
        RequestTable.from_requests(requests))
    assert from_list == from_table
    assert from_list.total_preemptions > 0


def test_fleet_begin_run_list_equals_table():
    fleet, table = _chaos()
    from_table = fleet.run(table)
    from_list = _chaos()[0].run(list(table))
    assert from_list.to_dict() == from_table.to_dict()
    assert ([s.to_dict() for s in from_list.shed]
            == [s.to_dict() for s in from_table.shed])


def _stalled_fleet():
    # Replica 0 hangs (unroutable, its queue frozen) while replica 1
    # crashes (its work goes to the retry queue), so new arrivals are
    # held: rows wait, run, are held and retry at the same instant.
    faults = FaultSchedule([FaultEvent(6.0, "hang", 0, duration_s=6.0),
                            FaultEvent(6.0, "crash", 1, restart_after_s=4.0)])
    return fixed_fleet(replica_spec("tdx", max_batch=4,
                                    kv_capacity_tokens=8192), 2,
                       faults=faults,
                       retry_policy=RetryPolicy(timeout_s=60.0,
                                                max_attempts=4, seed=2))


def test_snapshot_with_rows_in_every_holding_place():
    table = poisson_table(60, 4.0, mean_prompt=128, mean_output=48, seed=3)
    baseline = _stalled_fleet().run(table)

    running = _stalled_fleet()
    running.begin_run(table)
    everywhere = False
    while running.run_active and not everywhere:
        running.run_tick()
        run = running._run
        schedulers = [replica.scheduler for replica in running.replicas]
        everywhere = bool(
            run.held and run.chaos.retry_queue
            and any(s.queue_depth for s in schedulers)
            and any(s.outstanding > s.queue_depth for s in schedulers))
    assert everywhere, "no tick had rows waiting, running, held and retrying"
    payload = json.loads(json.dumps(running.to_state()))
    fresh = _stalled_fleet()
    fresh.from_state(payload)
    while fresh.run_active:
        fresh.run_tick()
    restored = fresh.finish_run()
    assert restored.to_dict() == baseline.to_dict()
    for column in ("request_id", "first_token_s", "finish_s", "preemptions"):
        assert (getattr(restored.outcomes, column).tolist()
                == getattr(baseline.outcomes, column).tolist())
