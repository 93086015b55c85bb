"""Property-based chaos: conservation and backoff laws under generated
fault schedules and arrival processes.

Together these generate well over a hundred random fault schedules and
backoff/hazard configurations per run (20 + 30 + 60 + 8 in the default
selection, plus 60 more behind ``-m slow``) and assert the invariants
the ``chaos`` audit family pins on fixed seeds: every request completes
or is shed exactly once, schedules are deterministic per seed, and
retry backoff is monotone non-decreasing.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
    mtbf_schedule,
)
from repro.fleet import fixed_fleet, poisson_table, replica_spec

TDX = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)

SIM_SETTINGS = dict(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def fault_events(replicas=2, horizon=12.0):
    """Strategy: one arbitrary valid fault event within the horizon."""
    times = st.floats(0.0, horizon, allow_nan=False, allow_infinity=False)
    rids = st.integers(0, replicas - 1)
    durations = st.floats(0.5, 6.0)
    crash = st.builds(
        FaultEvent, times, st.just("crash"), rids,
        restart_after_s=st.one_of(st.none(), st.floats(0.5, 8.0)))
    hang = st.builds(FaultEvent, times, st.just("hang"), rids,
                     duration_s=durations)
    slowdown = st.builds(FaultEvent, times, st.just("slowdown"), rids,
                         duration_s=durations,
                         factor=st.floats(1.1, 4.0))
    link = st.builds(FaultEvent, times, st.just("link_degrade"), rids,
                     duration_s=durations,
                     factor=st.floats(0.05, 1.0))
    boot = st.builds(FaultEvent, times, st.just("boot_failure"), rids,
                     duration_s=durations)
    attest = st.builds(FaultEvent, times, st.just("attestation_failure"),
                       rids, duration_s=durations)
    return st.one_of(crash, hang, slowdown, link, boot, attest)


def fault_schedules(replicas=2):
    return st.lists(fault_events(replicas), max_size=5).map(
        lambda events: FaultSchedule(tuple(events)))


@settings(max_examples=20, **SIM_SETTINGS)
@given(schedule=fault_schedules(),
       arrival_seed=st.integers(0, 10_000),
       retry_seed=st.integers(0, 10_000))
def test_conservation_under_random_schedules(schedule, arrival_seed,
                                             retry_seed):
    """submitted == completed + shed, every id exactly once, for any
    fault schedule x arrival process x retry seed."""
    requests = poisson_table(6, rate_per_s=3.0, mean_prompt=64,
                             mean_output=12, seed=arrival_seed)
    report = fixed_fleet(
        TDX, 2, faults=schedule,
        retry_policy=RetryPolicy(timeout_s=20.0, max_attempts=3,
                                 seed=retry_seed)).run(requests)
    completed = [o.request.request_id for o in report.outcomes]
    shed = [s.request.request_id for s in report.shed]
    assert sorted(completed + shed) == [r.request_id for r in requests]
    assert report.submitted == len(requests)
    assert report.wasted_tokens >= 0
    assert report.cost_usd >= 0
    for usage in report.replicas:
        # The rental window closes at *release*, which can postdate the
        # last request finish (``end_s``): a fault tick may land after
        # the work drained and retire the instance then.
        window_end = report.end_s if usage.retired_s is None \
            else max(report.end_s, usage.retired_s)
        window_s = max(0.0, window_end - usage.provisioned_s)
        assert usage.billed_hours * 3600.0 <= window_s + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       mtbf=st.floats(2.0, 60.0),
       horizon=st.floats(10.0, 120.0),
       replicas=st.integers(1, 4))
def test_mtbf_schedules_deterministic_and_bounded(seed, mtbf, horizon,
                                                  replicas):
    """Hazard schedules are reproducible per seed and stay in-horizon."""
    rids = list(range(replicas))
    first = mtbf_schedule(rids, mtbf_s=mtbf, horizon_s=horizon, seed=seed)
    second = mtbf_schedule(rids, mtbf_s=mtbf, horizon_s=horizon, seed=seed)
    assert first.to_dicts() == second.to_dicts()
    assert all(0.0 <= e.time_s < horizon for e in first)
    assert all(e.replica_id in rids for e in first)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000),
       request_id=st.integers(0, 1_000_000),
       base=st.floats(0.05, 5.0),
       multiplier=st.floats(1.0, 4.0),
       jitter=st.floats(0.0, 1.0))
def test_backoff_monotone_and_deterministic(seed, request_id, base,
                                            multiplier, jitter):
    """Backoff delays never shrink with the attempt number, and the
    jittered series is a pure function of (seed, request, attempt)."""
    policy = RetryPolicy(backoff_base_s=base, backoff_multiplier=multiplier,
                         jitter_frac=jitter, max_attempts=8, seed=seed)
    twin = RetryPolicy(backoff_base_s=base, backoff_multiplier=multiplier,
                       jitter_frac=jitter, max_attempts=8, seed=seed)
    delays = [policy.backoff_s(request_id, k) for k in range(1, 8)]
    assert all(b >= a for a, b in zip(delays, delays[1:]))
    assert all(d >= 0.0 for d in delays)
    assert delays == [twin.backoff_s(request_id, k) for k in range(1, 8)]


@settings(max_examples=8, **SIM_SETTINGS)
@given(schedule=fault_schedules(), seed=st.integers(0, 10_000))
def test_random_schedule_replay_is_bit_identical(schedule, seed):
    """Any schedule replays to the identical report on a fresh fleet."""
    requests = poisson_table(5, rate_per_s=3.0, mean_prompt=64,
                             mean_output=12, seed=seed)
    policy = RetryPolicy(timeout_s=20.0, max_attempts=3, seed=seed)
    first = fixed_fleet(TDX, 2, faults=schedule,
                        retry_policy=policy).run(requests)
    second = fixed_fleet(TDX, 2, faults=schedule,
                         retry_policy=policy).run(requests)
    assert first.to_dict() == second.to_dict()
    assert ([a.to_dict() for a in first.fault_events]
            == [a.to_dict() for a in second.fault_events])


@pytest.mark.slow
@settings(max_examples=60, **SIM_SETTINGS)
@given(schedule=fault_schedules(replicas=3),
       arrival_seed=st.integers(0, 10_000))
def test_conservation_deep_sweep(schedule, arrival_seed):
    """Wider slow-marked sweep: 3 replicas, bigger streams."""
    requests = poisson_table(10, rate_per_s=4.0, mean_prompt=64,
                             mean_output=16, seed=arrival_seed)
    report = fixed_fleet(
        TDX, 3, faults=schedule,
        retry_policy=RetryPolicy(timeout_s=20.0, max_attempts=4,
                                 seed=arrival_seed)).run(requests)
    completed = [o.request.request_id for o in report.outcomes]
    shed = [s.request.request_id for s in report.shed]
    assert sorted(completed + shed) == [r.request_id for r in requests]
