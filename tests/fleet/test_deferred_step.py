"""``run()`` defers the step that ends a tick until something reads the fleet.

Inside :meth:`FleetSimulator.run`, neither ``run_tick`` nor a quiet-tick
jump steps the busy replicas at its end: each only records the horizon
they are owed, a later jump overwrites it, and the next reader (the
next tick, a due timeout, the end-of-stream check, ``to_state``) pays
it.  These tests pin that the deferral is exact, that it saves steps,
and that the public ``begin_run``/``run_tick``/``finish_run`` loop stays
eager.
"""

import json

import numpy as np

from repro.faults import RetryPolicy, mtbf_schedule
from repro.fleet import (
    RequestTable,
    fixed_fleet,
    poisson_table,
    replica_spec,
)

SPEC = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)


def sparse():
    """8 TDX at 0.5 req/s: almost every tick between arrivals is jumped."""
    return fixed_fleet(SPEC, 8), poisson_table(
        300, rate_per_s=0.5, mean_prompt=128, mean_output=32, seed=11)


def faulted():
    """4 TDX under MTBF crashes, hangs and slowdowns with 20 s retry
    timeouts: some flights time out and are retried."""
    fleet = fixed_fleet(
        SPEC, 4, faults=mtbf_schedule([0, 1, 2, 3], mtbf_s=40.0,
                                      horizon_s=200.0, seed=5),
        retry_policy=RetryPolicy(timeout_s=20.0, max_attempts=4, seed=5))
    return fleet, poisson_table(200, rate_per_s=1.0, mean_prompt=128,
                                mean_output=64, seed=5)


STREAMS = {"sparse": sparse, "faulted": faulted}


def tick_loop(fleet, table):
    fleet.begin_run(table)
    while fleet.run_active:
        fleet.run_tick()
    return fleet.finish_run()


def traced(fleet):
    """Log ``("tick", clock)`` at each ``run_tick`` start, ``("step",
    replica_id, until_s)`` per ``Replica.step`` and ``("cancel",)`` per
    timeout cancel, in call order."""
    log = []
    for replica in fleet.replicas:
        step, cancel = replica.step, replica.cancel

        def counted(until_s, replica_id=replica.replica_id, step=step):
            log.append(("step", replica_id, until_s))
            return step(until_s)

        def cancelled(row, cancel=cancel):
            generated = cancel(row)
            if generated is not None:
                log.append(("cancel",))
            return generated

        replica.step, replica.cancel = counted, cancelled
    tick = fleet.run_tick

    def ticked():
        log.append(("tick", fleet.run_clock_s + fleet.tick_s))
        tick()

    fleet.run_tick = ticked
    return log


def windows(log):
    """Split a log into ``(clock, events)`` per executed tick; a window
    runs from one ``run_tick`` start to the next."""
    out = []
    for event in log:
        if event[0] == "tick":
            out.append((event[1], []))
        elif out:
            out[-1][1].append(event)
    return out


def steps(log):
    return sum(event[0] == "step" for event in log)


class TestRunEqualsTheTickLoop:
    def test_reports_and_outcome_columns_are_bit_identical(self):
        for name, make in STREAMS.items():
            fleet, table = make()
            deferred = fleet.run(table)
            eager = tick_loop(make()[0], table)
            assert deferred.to_dict() == eager.to_dict(), name
            for column in ("request_id", "first_token_s", "finish_s",
                           "preemptions"):
                assert np.array_equal(getattr(deferred.outcomes, column),
                                      getattr(eager.outcomes, column)), (
                    name, column)
            assert len(deferred.outcomes) == len(table), name
        # The faulted stream exercises retries and timeout cancels.
        fleet, table = faulted()
        log = traced(fleet)
        report = fleet.run(table)
        assert report.retries and ("cancel",) in log

    def test_a_snapshot_inside_run_pays_the_owed_step(self):
        """``to_state`` after any tick of ``run()`` equals the eager
        loop's snapshot at the same clock, byte for byte."""
        for name, make in STREAMS.items():
            fleet, table = make()
            inside = {}
            tick = fleet.run_tick

            def snapshot(fleet=fleet, tick=tick, inside=inside):
                tick()
                inside[fleet.run_clock_s] = json.dumps(fleet.to_state())

            fleet.run_tick = snapshot
            fleet.run(table)
            eager, _ = make()
            eager.begin_run(table)
            outside = {}
            while eager.run_active:
                eager.run_tick()
                outside[eager.run_clock_s] = json.dumps(eager.to_state())
            shared = set(inside) & set(outside)
            # Only the drain's last quiet tick lies past the loop's end.
            assert len(inside) - len(shared) <= 1, name
            assert len(shared) > 100, name
            for clock in shared:
                assert inside[clock] == outside[clock], (name, clock)


class TestOneStepPerExecutedTick:
    def test_sparse_run_steps_each_replica_once_per_tick(self):
        fleet, table = sparse()
        log = traced(fleet)
        fleet.run(table)
        last_arrival = float(table.arrival_s.max())
        ticks = windows(log)
        for clock, events in ticks:
            stepped = [event[1] for event in events if event[0] == "step"]
            if clock <= last_arrival:
                # While arrivals are pending, a replica is stepped only
                # by the next tick, to the horizon it is owed.
                assert len(stepped) == len(set(stepped)), clock
                assert all(event[2] < clock for event in events
                           if event[0] == "step"), clock
        per_replica = np.bincount([event[1] for event in log
                                   if event[0] == "step"])
        assert per_replica.max() <= len(ticks)
        eager, _ = sparse()
        eager_log = traced(eager)
        tick_loop(eager, table)
        # Half the steps of the eager loop's are gone, at least.
        assert 2 * steps(log) < steps(eager_log)

    def test_faulted_run_pays_at_most_one_owed_step_per_tick(self):
        fleet, table = faulted()
        log = traced(fleet)
        fleet.run(table)
        for clock, events in windows(log):
            owed = [event[1] for event in events
                    if event[0] == "step" and event[2] < clock]
            assert len(owed) == len(set(owed)), clock
            # A step to the tick itself is a timeout check or the
            # end-of-stream check catching up: at most one of each.
            own = [event[1] for event in events
                   if event[0] == "step" and event[2] == clock]
            assert max(np.bincount(own), default=0) <= 2, clock
        eager, _ = faulted()
        eager_log = traced(eager)
        tick_loop(eager, table)
        assert steps(log) < steps(eager_log)


class TestRunEndsWithItsLastFinish:
    def test_a_request_done_within_its_tick_ends_run_on_that_tick(self):
        """The end-of-stream check pays the owed step: on stale replica
        state the one-token request would still look outstanding, and
        ``run()`` would jump and execute a tick past the end."""
        table = RequestTable(np.arange(1), np.zeros(1), np.full(1, 8),
                             np.ones(1, dtype=np.int64))
        fleet = fixed_fleet(SPEC, 2)
        log = traced(fleet)
        report = fleet.run(table)
        assert [event for event in log if event[0] == "tick"] == [
            ("tick", 0.25)]
        assert report.to_dict() == tick_loop(fixed_fleet(SPEC, 2),
                                             table).to_dict()
        assert report.outcomes.finish_s[0] <= 0.25


class TestPublicLoopStaysEager:
    def test_every_busy_replica_is_stepped_when_run_tick_returns(self):
        for name, make in STREAMS.items():
            fleet, table = make()
            fleet.begin_run(table)
            checked = 0
            while fleet.run_active:
                fleet.run_tick()
                now = fleet.run_clock_s
                assert fleet._run.owed_s is None, name
                for replica_id in fleet._busy:
                    replica = fleet.replicas[replica_id]
                    if replica._hang_until_s is None:
                        assert replica.scheduler.clock_s >= now, (name, now)
                        checked += 1
            fleet.finish_run()
            assert checked, name
