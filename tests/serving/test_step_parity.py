"""Steppable-scheduler contract: step() == run(), preemption recompute.

The fleet simulator drives replicas through ``submit``/``step`` with a
shared-clock horizon; ``run`` is the run-to-completion wrapper.  Both
must produce bit-identical timelines for any stream and any stepping
cadence — these tests pin that, plus coverage of the preempt-and-
recompute path the single-pass tests only graze.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiment import cpu_deployment
from repro.fleet.table import RequestTable
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.admission import TenancyConfig
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    ServeRequest,
    poisson_stream,
)
from repro.validate.fleet import force_exact_decode


def make_scheduler(kv_tokens=4096, max_batch=4, lookahead=0, tenancy=None):
    deployment = cpu_deployment("tdx", sockets_used=1)
    return ContinuousBatchingScheduler(deployment, LLAMA2_7B, BFLOAT16,
                                       kv_capacity_tokens=kv_tokens,
                                       max_batch=max_batch,
                                       admission_lookahead=lookahead,
                                       tenancy=tenancy)


def bound_scheduler(requests, **kwargs):
    """A scheduler bound to ``requests`` as a run's table."""
    scheduler = make_scheduler(**kwargs)
    scheduler.bind(RequestTable.from_requests(requests))
    return scheduler


def run_stepped(requests, horizon_s, **kwargs):
    """Serve via submit + fixed-cadence step calls, then report."""
    scheduler = bound_scheduler(requests, **kwargs)
    for row in range(len(requests)):
        scheduler.submit(row)
    clock = 0.0
    finished = []
    while not scheduler.idle:
        clock += horizon_s
        finished.extend(scheduler.step(clock))
    report = scheduler.report()
    return scheduler, report, finished


def assert_reports_identical(a, b):
    assert len(a.outcomes) == len(b.outcomes)
    for x, y in zip(a.outcomes, b.outcomes):
        assert x.request == y.request
        assert x.first_token_s == y.first_token_s  # exact, not approx
        assert x.finish_s == y.finish_s
        assert x.preemptions == y.preemptions
    assert a.makespan_s == b.makespan_s
    assert a.start_s == b.start_s
    assert a.total_preemptions == b.total_preemptions
    assert a.mean_batch_occupancy == b.mean_batch_occupancy


# Request-stream generator in the style of the KV-cache property tests:
# arbitrary shapes and staggered arrivals, all feasible for the pool.
streams = st.lists(
    st.tuples(st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
              st.integers(16, 400), st.integers(8, 80)),
    min_size=1, max_size=12,
)


class TestStepRunParity:
    @settings(max_examples=12, deadline=None)
    @given(shapes=streams, horizon=st.sampled_from([0.05, 0.4, 2.5]))
    def test_any_stream_any_cadence_matches_run(self, shapes, horizon):
        requests = [ServeRequest(i, arrival, prompt, output)
                    for i, (arrival, prompt, output) in enumerate(shapes)]
        run_report = make_scheduler().run(requests)
        _, step_report, _ = run_stepped(requests, horizon)
        assert_reports_identical(run_report, step_report)

    def test_parity_under_preemption_pressure(self):
        """Cadence-independence holds through preempt/recompute storms."""
        requests = [ServeRequest(i, 0.05 * i, 300, 100) for i in range(8)]
        run_report = make_scheduler(kv_tokens=2048, max_batch=8).run(requests)
        assert run_report.total_preemptions > 0
        for horizon in (0.1, 1.0, 7.0):
            _, step_report, _ = run_stepped(requests, horizon,
                                            kv_tokens=2048, max_batch=8)
            assert_reports_identical(run_report, step_report)

    def test_step_returns_each_outcome_exactly_once(self):
        requests = poisson_stream(15, rate_per_s=4.0, mean_prompt=64,
                                  mean_output=16, seed=6)
        _, report, finished = run_stepped(requests, 0.5)
        # Stream ids equal rows, so finished rows name the outcomes.
        assert sorted(finished) == \
            sorted(o.request.request_id for o in report.outcomes)

    def test_step_respects_horizon_when_idle(self):
        """An idle replica's clock never jumps past a future arrival."""
        scheduler = bound_scheduler([ServeRequest(0, 10.0, 64, 8)])
        scheduler.submit(0)
        assert scheduler.step(5.0) == []
        assert scheduler.clock_s < 10.0  # did not admit future work
        scheduler.step(50.0)
        assert scheduler.idle
        outcome = scheduler.report().outcomes[0]
        assert outcome.first_token_s >= 10.0

    def test_advance_clock_never_rewinds(self):
        scheduler = make_scheduler()
        scheduler.advance_clock_to(4.0)
        scheduler.advance_clock_to(1.0)
        assert scheduler.clock_s == 4.0

    def test_duplicate_submit_rejected(self):
        scheduler = bound_scheduler([ServeRequest(1, 0.0, 64, 8)])
        scheduler.submit(0)
        with pytest.raises(ValueError, match="already"):
            scheduler.submit(0)


class TestPreemptionRecompute:
    def test_preempted_request_recomputes_full_context(self):
        """A preempted sequence restarts from zero generated tokens and
        still produces its full output."""
        scheduler = make_scheduler(kv_tokens=1024, max_batch=4)
        requests = [ServeRequest(i, 0.0, 180, 90) for i in range(4)]
        report = scheduler.run(requests)
        assert report.total_preemptions > 0
        preempted = [o for o in report.outcomes if o.preemptions > 0]
        assert preempted
        for outcome in preempted:
            # Recompute means the victim finishes after a non-preempted
            # peer that arrived at the same time.
            assert outcome.finish_s >= min(o.finish_s
                                           for o in report.outcomes)
        assert scheduler.kv_free_fraction == 1.0

    def test_preemption_counts_conserved_across_step_cadences(self):
        requests = [ServeRequest(i, 0.0, 200, 120) for i in range(8)]
        base = make_scheduler(kv_tokens=2048, max_batch=8).run(requests)
        _, stepped, _ = run_stepped(requests, 0.25, kv_tokens=2048,
                                    max_batch=8)
        assert stepped.total_preemptions == base.total_preemptions
        assert (sum(o.preemptions for o in stepped.outcomes)
                == stepped.total_preemptions)


class TestSatelliteRegressions:
    def test_makespan_measured_from_first_arrival(self):
        """Idle lead time before the first arrival must not count as
        serving time (it used to deflate throughput)."""
        late = [ServeRequest(0, 100.0, 128, 32)]
        report = make_scheduler(kv_tokens=100_000).run(late)
        assert report.start_s == 100.0
        assert report.makespan_s < 50.0  # service time, not clock-0 offset
        early_report = make_scheduler(kv_tokens=100_000).run(
            [ServeRequest(0, 0.0, 128, 32)])
        # Shifting the stream in time must not change throughput.
        assert report.throughput_tok_s == pytest.approx(
            early_report.throughput_tok_s, rel=1e-12)

    def test_percentile_linear_interpolation(self):
        """p50 of two values is their midpoint, not an endpoint."""
        from repro.serving.scheduler import _percentile
        assert _percentile([1.0, 3.0], 50) == pytest.approx(2.0)
        assert _percentile([1.0, 2.0, 4.0], 75) == pytest.approx(3.0)
        assert _percentile([5.0], 99) == 5.0
        values = [8.5, 0.7, 3.1, 1.9, 4.0]
        numpy = pytest.importorskip("numpy")
        for p in (0, 10, 25, 50, 73, 90, 99, 100):
            from_list = _percentile(values, p)
            from_array = _percentile(numpy.array(values), p)
            # Lists and ndarrays (the fleet's outcome columns) give the
            # same Python float, bit for bit.
            assert type(from_list) is float and type(from_array) is float
            assert from_list == from_array
            assert from_list == pytest.approx(
                float(numpy.percentile(values, p)), rel=1e-12)
        with pytest.raises(ValueError, match="no values"):
            _percentile(numpy.array([]), 50)

    def test_head_of_line_blocking_is_fcfs_by_default(self):
        """Admission breaks on the first KV-allocation failure even when
        a smaller queued request would fit (documented FCFS policy)."""
        # Pool of 512 tokens; a 400-token head with a 64-token request
        # queued behind it.  Admit the head, then a second 400-token
        # head blocks while the 64-token one waits behind it.
        requests = [ServeRequest(0, 0.0, 300, 60),
                    ServeRequest(1, 0.0, 300, 60),
                    ServeRequest(2, 0.0, 32, 8)]
        fcfs = make_scheduler(kv_tokens=512, max_batch=4).run(requests)
        small_fcfs = next(o for o in fcfs.outcomes
                          if o.request.request_id == 2)
        # Strict FCFS: the small request cannot jump the blocked head.
        blocked_head = next(o for o in fcfs.outcomes
                            if o.request.request_id == 1)
        assert small_fcfs.first_token_s > blocked_head.request.arrival_s

        look = make_scheduler(kv_tokens=512, max_batch=4,
                              lookahead=4).run(requests)
        small_look = next(o for o in look.outcomes
                          if o.request.request_id == 2)
        # Bounded lookahead admits the small request earlier.
        assert small_look.first_token_s < small_fcfs.first_token_s
        assert all(o.finish_s > 0 for o in look.outcomes)

    def test_lookahead_zero_matches_legacy_exactly(self):
        requests = poisson_stream(12, 3.0, mean_prompt=96, mean_output=24,
                                  seed=8)
        a = make_scheduler(kv_tokens=1024).run(requests)
        b = make_scheduler(kv_tokens=1024, lookahead=0).run(requests)
        assert [o.finish_s for o in a.outcomes] == \
            [o.finish_s for o in b.outcomes]

    def test_lookahead_validation(self):
        with pytest.raises(ValueError, match="admission_lookahead"):
            make_scheduler(lookahead=-1)


def _tenancy(policy):
    if policy is None:
        return None
    admission, isolation = policy
    return TenancyConfig(
        admission=admission, kv_isolation=isolation,
        weights=((0, 3.0), (1, 1.0), (2, 2.0)),
        prefix_tokens=((0, 48), (1, 20)),
        partition_shares=(((0, 0.5), (1, 0.25), (2, 0.25))
                          if isolation == "partition" else ()))


def _call(method, *args):
    """``(result, None)`` or ``(None, error text)`` of one call."""
    try:
        return method(*args), None
    except ValueError as error:
        return None, str(error)


POLICIES = [None] + [(admission, isolation)
                     for admission in ("fcfs", "wfq")
                     for isolation in ("shared", "partition", "shared-prefix")]

tenant_streams = st.lists(
    st.tuples(st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
              st.integers(16, 300), st.integers(8, 120),
              st.integers(0, 2)),
    min_size=1, max_size=14,
)


class TestEventDecodeParity:
    """The event-driven decode step equals the exact per-sequence step."""

    @settings(max_examples=40, deadline=None)
    @given(shapes=tenant_streams,
           kv_tokens=st.sampled_from([768, 1024, 2048, 65536]),
           policy=st.sampled_from(POLICIES),
           horizon=st.sampled_from([0.05, 0.4, 2.5]),
           disrupt=st.sampled_from(["none", "cancel", "evacuate"]),
           at_call=st.integers(1, 8), victim=st.integers(0, 13),
           time_scale=st.sampled_from([1.0, 1.75, 0.6]))
    def test_event_path_matches_forced_exact(self, shapes, kv_tokens,
                                             policy, horizon, disrupt,
                                             at_call, victim, time_scale):
        requests = sorted(
            (ServeRequest(i, arrival, prompt, output, tenant_id=tenant)
             for i, (arrival, prompt, output, tenant) in enumerate(shapes)),
            key=lambda r: (r.arrival_s, r.request_id))
        event = bound_scheduler(requests, kv_tokens=kv_tokens, max_batch=6,
                                tenancy=_tenancy(policy))
        exact = force_exact_decode(bound_scheduler(
            requests, kv_tokens=kv_tokens, max_batch=6,
            tenancy=_tenancy(policy)))
        for row in event.table.arrival_order().tolist():
            # A request too large for the pool or partition is refused
            # identically by both.
            assert _call(event.submit, row) == _call(exact.submit, row)
        # A slowed replica caches its scaled step cost per context bucket.
        event.time_scale = exact.time_scale = time_scale
        clock, calls = 0.0, 0
        while not (event.idle and exact.idle):
            clock += horizon
            calls += 1
            assert event.step(clock) == exact.step(clock)
            assert event.to_state() == exact.to_state()
            assert event.outcomes.to_state() == exact.outcomes.to_state()
            if calls == at_call and disrupt == "cancel":
                row = victim % len(requests)
                assert event.cancel(row) == exact.cancel(row)
            elif calls == at_call and disrupt == "evacuate":
                assert event.evacuate() == exact.evacuate()
        assert event.to_state() == exact.to_state()
        got, want = _call(event.report), _call(exact.report)
        if want[0] is None:
            assert got == want
        else:
            assert_reports_identical(got[0], want[0])

    def test_preempting_stream_takes_both_paths(self):
        """A tight pool drives both branches, and the event path's
        preemptions and timelines equal the forced-exact run's."""
        from repro.validate.fleet import count_decode_paths
        requests = poisson_stream(40, 20.0, mean_prompt=96,
                                  mean_output=160, seed=5)
        event = make_scheduler(kv_tokens=1024, max_batch=16)
        paths = count_decode_paths(event)
        report = event.run(requests)
        reference = force_exact_decode(
            make_scheduler(kv_tokens=1024, max_batch=16)).run(requests)
        assert_reports_identical(report, reference)
        assert report.total_preemptions > 0
        assert 0 < paths["exact"] < event.to_state()["occ_count"]

    def test_bucket_crossing_mid_run_charges_the_new_cost(self):
        """A batch-1 run whose context crosses 64 mid-run charges the
        next bucket's step cost from exactly the crossing step."""
        from repro.validate.fleet import count_decode_paths
        prompt, output = 50, 40  # contexts 50..89: step 14 is at 64
        requests = [ServeRequest(0, 0.0, prompt, output)]
        event = bound_scheduler(requests)
        exact = force_exact_decode(bound_scheduler(requests))
        paths = count_decode_paths(event)
        for scheduler in (event, exact):
            scheduler.submit(0)
            scheduler.step(None)
        assert paths == {"exact": 0, "runs": 1, "multi": 1, "cut": 0}
        assert event.clock_s == exact.clock_s
        assert event._steps == exact._steps == output
        costs = event._costs
        assert costs.decode_step_s(1, 63) != costs.decode_step_s(1, 64)

        def clock_switching_at(switch):
            clock = costs.prefill_s(prompt)
            for step in range(output):
                context = 63 if prompt + step < switch else 64
                clock += costs.decode_step_s(1, context)
            return clock
        assert event.clock_s == clock_switching_at(64)
        assert event.clock_s not in (clock_switching_at(63),
                                     clock_switching_at(65))

    def test_arrival_on_a_step_boundary_stops_the_run(self):
        """A request arriving exactly when a decode step ends is admitted
        right after that step, as the per-step loop admits it."""
        costs = make_scheduler()._costs
        boundary = costs.prefill_s(64)
        for step in range(5):
            boundary += costs.decode_step_s(1, 64 + step)
        requests = [ServeRequest(0, 0.0, 64, 40),
                    ServeRequest(1, boundary, 64, 8)]
        event = make_scheduler().run(requests)
        exact = force_exact_decode(make_scheduler()).run(requests)
        assert_reports_identical(event, exact)
        assert event.outcomes[1].first_token_s == \
            boundary + costs.prefill_s(64)
