"""Property tests: quiet-tick jumping and mid-run resume of the fleet core.

The hand-picked regimes live in ``repro.validate.fleet``
(``fleet.jump_parity``); here hypothesis draws *random* fleet
configurations — replica kind and count, stream shape, FCFS or WFQ
admission, tick width, faults on or off — and asserts that ``run()``,
which jumps quiet stretches of the tick grid, equals a plain
``begin_run``/``run_tick``/``finish_run`` loop, and that freezing a run
mid-flight and restoring it changes nothing.  Equality is exact, not
approximate.  Deterministic tests pin what the jumps buy: a sparse run
executes one tick per arrival tick, and idle replicas are not stepped.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.faults import FaultEvent, FaultSchedule, RetryPolicy, mtbf_schedule
from repro.fleet import (
    RequestTable,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from repro.serving.admission import TenancyConfig

configs = st.fixed_dictionaries({
    "kind": st.sampled_from(["tdx", "baremetal", "cgpu"]),
    "replicas": st.integers(1, 3),
    "count": st.integers(5, 30),
    "rate": st.sampled_from([0.5, 2.0, 4.0, 8.0]),
    "seed": st.integers(0, 50),
    "faulted": st.booleans(),
    "admission": st.sampled_from(["fcfs", "wfq"]),
    # 0.1 and 0.3 are not dyadic: their grid accumulates rounding, which
    # exact jump landing must reproduce tick for tick.
    "tick_s": st.sampled_from([0.25, 0.1, 0.3]),
})

#: WFQ weights of the three tenants a ``wfq`` stream cycles through.
WFQ = TenancyConfig(admission="wfq", weights=((0, 4.0), (1, 2.0), (2, 1.0)))


def build(config):
    spec = replica_spec(config["kind"], max_batch=8,
                        kv_capacity_tokens=16384,
                        tenancy=WFQ if config["admission"] == "wfq" else None)
    kwargs = {}
    if config["faulted"]:
        kwargs = dict(
            faults=mtbf_schedule(list(range(config["replicas"])),
                                 mtbf_s=8.0, horizon_s=20.0,
                                 seed=config["seed"]),
            retry_policy=RetryPolicy(timeout_s=30.0, max_attempts=4,
                                     seed=config["seed"]))
    return fixed_fleet(spec, config["replicas"], tick_s=config["tick_s"],
                       **kwargs)


def stream(config):
    table = poisson_table(config["count"], rate_per_s=config["rate"],
                          mean_prompt=96, mean_output=24,
                          seed=config["seed"])
    if config["admission"] == "fcfs":
        return table
    return RequestTable(table.request_id, table.arrival_s,
                        table.prompt_tokens, table.output_tokens,
                        tenant_id=np.arange(len(table)) % 3)


def tick_loop(fleet, requests):
    fleet.begin_run(requests)
    while fleet.run_active:
        fleet.run_tick()
    return fleet.finish_run()


def assert_reports_equal(a, b):
    assert a.to_dict() == b.to_dict()
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.request.request_id == y.request.request_id
        assert x.first_token_s == y.first_token_s  # exact, not approx
        assert x.finish_s == y.finish_s
        assert x.preemptions == y.preemptions


class TestJumpParity:
    @settings(max_examples=15, deadline=None)
    @given(config=configs)
    def test_run_equals_tick_loop(self, config):
        table = stream(config)
        assert_reports_equal(build(config).run(table),
                             tick_loop(build(config), table))

    @settings(max_examples=8, deadline=None)
    @given(config=configs)
    def test_run_accepts_object_streams(self, config):
        """begin_run converts plain request lists to a table itself."""
        table = stream(config)
        from_list = build(config).run(list(table))
        from_table = build(config).run(table)
        assert_reports_equal(from_list, from_table)


def arrival_ticks(table, tick_s):
    """Grid ticks that route at least one arrival, on the accumulated
    grid ``run_tick`` walks."""
    arrivals = sorted(table.arrival_s.tolist())
    now = (arrivals[0] // tick_s) * tick_s
    ticks = head = 0
    while head < len(arrivals):
        now += tick_s
        if arrivals[head] <= now:
            ticks += 1
            while head < len(arrivals) and arrivals[head] <= now:
                head += 1
    return ticks


class TestTicksOnlyWhereThereIsWork:
    def test_sparse_run_executes_one_tick_per_arrival_tick(self):
        spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
        table = poisson_table(60, rate_per_s=0.5, mean_prompt=128,
                              mean_output=32, seed=11)
        for tick_s in (0.25, 0.1):
            fleet = fixed_fleet(spec, 2, tick_s=tick_s)
            executed = 0
            tick = fleet.run_tick

            def counted():
                nonlocal executed
                executed += 1
                tick()

            fleet.run_tick = counted
            report = fleet.run(table)
            # A sparse stream drains in one chunk after its last arrival.
            assert executed <= arrival_ticks(table, tick_s) + 1
            assert_reports_equal(report, tick_loop(
                fixed_fleet(spec, 2, tick_s=tick_s), table))

    @staticmethod
    def _quiet_second_replica(faults=None):
        """Two replicas, one request every 10 s: least-outstanding sends
        every request to replica 0, so replica 1 stays idle."""
        spec = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384)
        fleet = fixed_fleet(spec, 2, faults=faults)
        calls = []
        scheduler = fleet.replicas[1].scheduler
        step = scheduler.step

        def spy(until_s=None):
            calls.append(until_s)
            return step(until_s)

        scheduler.step = spy
        table = RequestTable(np.arange(4), 10.0 * np.arange(4),
                             np.full(4, 64), np.full(4, 8))
        return fleet, table, calls

    def test_idle_replica_is_not_stepped_unless_hung(self):
        for drive in (lambda f, t: f.run(t), tick_loop):
            fleet, table, calls = self._quiet_second_replica()
            report = drive(fleet, table)
            assert report.replicas[1].requests_served == 0
            assert calls == []

        # A hang on the idle replica must still lift at hang_until.
        hang = FaultSchedule((FaultEvent(5.0, "hang", 1, duration_s=7.0),))
        reports = []
        for drive in (lambda f, t: f.run(t), tick_loop):
            fleet, table, calls = self._quiet_second_replica(hang)
            reports.append(drive(fleet, table))
            idle = fleet.replicas[1]
            assert idle._hang_until_s is None
            assert idle.scheduler.clock_s == 12.0
            # Stepped once, by the tick that lifted the hang.
            assert calls == [12.0]
        assert_reports_equal(*reports)

    def test_replica_past_the_tick_is_stepped_only_to_lift_a_hang(self):
        """A 2048-token prefill outlasts ten 0.25 s ticks.  Those ticks
        leave the replica alone, except the one its hang lifts on: that
        step makes it routable again, so the row due at 1.0 s is routed
        to it on time."""
        spec = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384)
        hang = FaultSchedule((FaultEvent(0.5, "hang", 0, duration_s=0.25),))
        fleet = fixed_fleet(spec, 1, faults=hang)
        replica = fleet.replicas[0]
        scheduler = replica.scheduler
        step = scheduler.step
        calls = []

        def spy(until_s=None):
            calls.append((until_s, scheduler.clock_s))
            return step(until_s)

        scheduler.step = spy
        table = RequestTable(np.arange(2), np.array([0.0, 0.8]),
                             np.array([2048, 64]), np.array([8, 8]))
        fleet.begin_run(table)
        for _ in range(3):
            fleet.run_tick()
        assert fleet.run_clock_s == 0.75
        assert replica._hang_until_s is None and replica.routable
        # The tick the hang lifted on stepped the replica although its
        # clock was already past the tick.
        assert calls[-1] == (0.75, scheduler.clock_s)
        assert scheduler.clock_s > 0.75
        fleet.run_tick()
        assert replica.outstanding == 2
        while fleet.run_active:
            fleet.run_tick()
        # Every other step found the clock short of its horizon.
        past = [(until, clock) for until, clock in calls if clock >= until]
        assert past == [(0.75, calls[1][1])]
        assert len(calls) < fleet.run_clock_s / 0.25


class TestEventResume:
    @settings(max_examples=10, deadline=None)
    @given(config=configs, pause_ticks=st.integers(1, 60))
    def test_snapshot_restore_finish_is_invisible(self, config, pause_ticks):
        table = stream(config)
        baseline = build(config).run(table)

        running = build(config)
        running.begin_run(table)
        for _ in range(pause_ticks):
            if not running.run_active:
                break
            running.run_tick()
        payload = json.loads(json.dumps(running.to_state()))
        fresh = build(config)
        fresh.from_state(payload)
        while fresh.run_active:
            fresh.run_tick()
        assert_reports_equal(baseline, fresh.finish_run())
        # The observed simulator finishes identically too.
        while running.run_active:
            running.run_tick()
        assert_reports_equal(baseline, running.finish_run())

    def test_table_round_trips_through_state(self):
        table = poisson_table(25, rate_per_s=4.0, seed=5)
        restored = RequestTable.from_state(
            json.loads(json.dumps(table.to_state())))
        assert len(restored) == len(table)
        for i in range(len(table)):
            assert table.request(i) == restored.request(i)
