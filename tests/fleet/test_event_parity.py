"""Property tests: quiet-tick jumping and mid-run resume of the fleet core.

The hand-picked regimes live in ``repro.validate.fleet``
(``fleet.jump_parity``); here hypothesis draws *random* fleet
configurations — replica kind and count, stream shape, faults on or
off — and asserts that ``run()``, which jumps quiet stretches of the
tick grid, equals a plain ``begin_run``/``run_tick``/``finish_run``
loop, and that freezing a run mid-flight and restoring it changes
nothing.  Equality is exact, not approximate.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.faults import RetryPolicy, mtbf_schedule
from repro.fleet import (
    RequestTable,
    fixed_fleet,
    poisson_table,
    replica_spec,
)

configs = st.fixed_dictionaries({
    "kind": st.sampled_from(["tdx", "baremetal", "cgpu"]),
    "replicas": st.integers(1, 3),
    "count": st.integers(5, 30),
    "rate": st.sampled_from([0.5, 2.0, 4.0, 8.0]),
    "seed": st.integers(0, 50),
    "faulted": st.booleans(),
})


def build(config):
    spec = replica_spec(config["kind"], max_batch=8,
                        kv_capacity_tokens=16384)
    kwargs = {}
    if config["faulted"]:
        kwargs = dict(
            faults=mtbf_schedule(list(range(config["replicas"])),
                                 mtbf_s=8.0, horizon_s=20.0,
                                 seed=config["seed"]),
            retry_policy=RetryPolicy(timeout_s=30.0, max_attempts=4,
                                     seed=config["seed"]))
    return fixed_fleet(spec, config["replicas"], **kwargs)


def stream(config):
    return poisson_table(config["count"], rate_per_s=config["rate"],
                         mean_prompt=96, mean_output=24, seed=config["seed"])


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
