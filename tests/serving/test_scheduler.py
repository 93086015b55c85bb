"""Continuous-batching scheduler: completeness, conservation, SLAs."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.fleet.table import RequestTable
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    OutcomeLog,
    ServeRequest,
    poisson_stream,
)
from repro.tenancy import whale_mix


def make_scheduler(kv_tokens=100_000, max_batch=16, backend="tdx"):
    if backend in ("gpu", "cgpu"):
        deployment = gpu_deployment(confidential=backend == "cgpu")
    else:
        deployment = cpu_deployment(backend, sockets_used=1)
    return ContinuousBatchingScheduler(deployment, LLAMA2_7B, BFLOAT16,
                                       kv_capacity_tokens=kv_tokens,
                                       max_batch=max_batch)


class TestBasicServing:
    @pytest.fixture(scope="class")
    def report(self):
        requests = poisson_stream(20, rate_per_s=4.0, mean_prompt=128,
                                  mean_output=32, seed=2)
        return make_scheduler().run(requests)

    def test_all_requests_complete(self, report):
        assert len(report.outcomes) == 20
        assert all(o.finish_s > 0 for o in report.outcomes)

    def test_timeline_consistent(self, report):
        for outcome in report.outcomes:
            assert (outcome.request.arrival_s <= outcome.first_token_s
                    <= outcome.finish_s)

    def test_throughput_positive(self, report):
        assert report.throughput_tok_s > 0

    def test_percentiles_ordered(self, report):
        assert (report.ttft_percentile(50) <= report.ttft_percentile(95))
        assert (report.e2e_percentile(50) <= report.e2e_percentile(95))

    def test_occupancy_within_cap(self, report):
        assert 0 < report.mean_batch_occupancy <= 16


class TestKvConservation:
    def test_cache_empty_after_run(self):
        scheduler = make_scheduler()
        scheduler.run(poisson_stream(10, rate_per_s=5.0, mean_prompt=64,
                                     mean_output=16, seed=3))
        assert scheduler.kv_free_fraction == 1.0

    def test_preemption_under_memory_pressure(self):
        """A tight KV pool forces preemptions, yet everything finishes."""
        scheduler = make_scheduler(kv_tokens=2048, max_batch=8)
        requests = [ServeRequest(i, 0.0, prompt_tokens=200,
                                 output_tokens=120) for i in range(8)]
        report = scheduler.run(requests)
        assert report.total_preemptions > 0
        assert all(o.finish_s > 0 for o in report.outcomes)
        assert scheduler.kv_free_fraction == 1.0

    def test_impossible_request_rejected(self):
        scheduler = make_scheduler(kv_tokens=256)
        with pytest.raises(ValueError, match="KV tokens"):
            scheduler.run([ServeRequest(0, 0.0, 500, 100)])


class TestRequestValidation:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            ServeRequest(0, -1.0, 16, 16)

    def test_nonfinite_arrival_rejected(self):
        # Regression: nan < 0 is False, so a NaN arrival used to pass
        # validation and poison every downstream timeline metric.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ServeRequest(0, bad, 16, 16)

    def test_nonfinite_token_counts_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ServeRequest(0, 0.0, float("nan"), 16)
        with pytest.raises(ValueError, match="finite"):
            ServeRequest(0, 0.0, 16, float("inf"))

    @pytest.mark.parametrize("field,bad", [
        ("prompt_tokens", 3.7), ("prompt_tokens", 1.5),
        ("output_tokens", 2.5), ("request_id", 0.5), ("priority", 1.25),
        ("priority", float("inf")), ("tenant_id", 0.5),
        ("tenant_id", float("nan"))])
    def test_fractional_or_nonfinite_whole_fields_rejected(self, field, bad):
        # Regression: a 3.7-token prompt was accepted and later served
        # (and costed) as 3 tokens by RequestTable.from_requests.
        fields = dict(request_id=0, arrival_s=0.0, prompt_tokens=16,
                      output_tokens=16)
        fields[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be a finite"):
            ServeRequest(**fields)

    def test_integral_values_of_any_numeric_type_accepted(self):
        request = ServeRequest(np.int64(3), 0.0, 16.0, np.int32(8))
        table = RequestTable.from_requests([request])
        assert table.prompt_tokens.tolist() == [16]
        assert table.output_tokens.tolist() == [8]

    @pytest.mark.parametrize("field,bad", [
        ("prompt_tokens", [3.7]), ("prompt_tokens", [1.5]),
        ("output_tokens", [float("inf")]), ("output_tokens", [float("nan")]),
        ("request_id", [0.5]), ("priority", [float("inf")]),
        ("priority", [0.25]), ("tenant_id", [1.5]), ("tenant_id", [1e300]),
        ("prompt_tokens", ["16"])])
    def test_request_table_refuses_instead_of_truncating(self, field, bad):
        # Regression: the int64 cast ran before the checks, so [3.7] was
        # served as 3 tokens and [inf] raised OverflowError.
        columns = dict(request_id=[0], arrival_s=[0.0], prompt_tokens=[16],
                       output_tokens=[16])
        columns[field] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RequestTable(**columns)

    def test_request_table_keeps_whole_float_columns(self):
        table = RequestTable([0.0, 1.0], [0.0, 0.5], [16.0, 3.0], [4, 5],
                             priority=[1.0, 2.0], tenant_id=[0.0, 1.0])
        assert table.request_id.dtype == table.prompt_tokens.dtype == "int64"
        assert table.prompt_tokens.tolist() == [16, 3]
        assert table.priority.tolist() == [1, 2]


class TestSharedPrefixFit:
    def test_request_that_cannot_fit_beside_every_pin_is_refused(self):
        """Pinned prefixes are never released, so under shared-prefix
        isolation a request whose suffix and output do not fit beside
        every tenant's pin would preempt itself forever: it is refused
        at submit, and the rest of the stream runs to completion."""
        population = whale_mix(120, 6.0, seed=0, prefix_tokens=48)
        scheduler = ContinuousBatchingScheduler(
            cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
            kv_capacity_tokens=1536, max_batch=8,
            tenancy=population.tenancy_config("fcfs", "shared-prefix"))
        table = population.table()
        scheduler.bind(table)
        refused = {}
        for row in table.arrival_order().tolist():
            try:
                scheduler.submit(row)
            except ValueError as error:
                refused[row] = str(error)
        assert sorted(refused) == [70, 80]
        assert "pool holds 1536" in refused[70]
        assert "beside every pinned prefix" in refused[80]
        scheduler.step(None)
        assert scheduler.idle
        assert scheduler.preemptions == 79


class TestBackendComparison:
    def test_gpu_serves_faster_than_cpu_tee(self):
        requests = poisson_stream(10, rate_per_s=10.0, mean_prompt=128,
                                  mean_output=32, seed=4)
        tdx = make_scheduler(backend="tdx").run(requests)
        cgpu = make_scheduler(backend="cgpu").run(requests)
        assert cgpu.throughput_tok_s > tdx.throughput_tok_s
        assert cgpu.ttft_percentile(95) < tdx.ttft_percentile(95)

    def test_tee_overhead_visible_in_serving(self):
        requests = poisson_stream(8, rate_per_s=10.0, mean_prompt=128,
                                  mean_output=32, seed=5)
        base = make_scheduler(backend="baremetal").run(requests)
        tdx = make_scheduler(backend="tdx").run(requests)
        ratio = tdx.makespan_s / base.makespan_s
        assert 1.0 < ratio < 1.3


class TestStreamGenerator:
    def test_deterministic(self):
        assert poisson_stream(5, 1.0, seed=9) == poisson_stream(5, 1.0, seed=9)

    def test_arrivals_increase(self):
        stream = poisson_stream(50, 2.0, seed=1)
        arrivals = [r.arrival_s for r in stream]
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_stream(0, 1.0)
        with pytest.raises(ValueError):
            poisson_stream(5, 0.0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            ServeRequest(0, -1.0, 10, 10)
        with pytest.raises(ValueError):
            ServeRequest(0, 0.0, 0, 10)


class TestKvGeometryValidation:
    @pytest.mark.parametrize("block_size, kv_tokens", [
        (0, 65536), (-16, 65536), (16.5, 65536),
        (16, -1), (16, 8), (16, float("nan")), (16, float("inf")),
    ])
    def test_bad_kv_geometry_rejected_at_the_scheduler(self, block_size,
                                                       kv_tokens):
        """Bad KV geometry raises ValueError before any request runs,
        whether the scheduler is built directly or by a fleet."""
        from repro.fleet import fixed_fleet, poisson_table, replica_spec
        with pytest.raises(ValueError, match="block_size|kv_capacity"):
            ContinuousBatchingScheduler(
                cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
                kv_capacity_tokens=kv_tokens, block_size=block_size)
        spec = replica_spec("tdx", block_size=block_size,
                            kv_capacity_tokens=kv_tokens)
        with pytest.raises(ValueError, match="block_size|kv_capacity"):
            fixed_fleet(spec, 1).run(poisson_table(4, 1.0, seed=1))

    @pytest.mark.parametrize("knob, value", [
        ("max_batch", 0), ("max_batch", -2), ("max_batch", float("nan")),
        ("max_batch", float("inf")), ("max_batch", 8.0),
        ("admission_lookahead", -1), ("admission_lookahead", float("nan")),
        ("admission_lookahead", float("inf")),
        ("admission_lookahead", 1.5),
    ])
    def test_bad_admission_knobs_rejected_at_the_scheduler(self, knob,
                                                           value):
        """A batch cap or lookahead window that is not a whole number
        in range raises ValueError before any request runs.  (A NaN
        batch cap used to hang a fleet run; a NaN or fractional
        lookahead was accepted and failed only when a head blocked.)"""
        from repro.fleet import fixed_fleet, poisson_table, replica_spec
        with pytest.raises(ValueError, match=knob):
            ContinuousBatchingScheduler(
                cpu_deployment("tdx", sockets_used=1), LLAMA2_7B, BFLOAT16,
                **{knob: value})
        spec = replica_spec("tdx", **{knob: value})
        with pytest.raises(ValueError, match=knob):
            fixed_fleet(spec, 1).run(poisson_table(4, 1.0, seed=1))


class TestSchedulerProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(16, 300), st.integers(8, 60)),
        min_size=1, max_size=10))
    def test_any_mix_completes_and_conserves(self, shapes):
        """Any feasible request mix completes with blocks conserved."""
        scheduler = make_scheduler(kv_tokens=4096, max_batch=4)
        requests = [ServeRequest(i, 0.1 * i, prompt, output)
                    for i, (prompt, output) in enumerate(shapes)]
        report = scheduler.run(requests)
        assert len(report.outcomes) == len(requests)
        assert all(o.finish_s >= o.first_token_s for o in report.outcomes)
        assert scheduler.kv_free_fraction == 1.0


# (label, backend, kv_capacity_tokens, max_batch, lookahead, stream kwargs)
SNAPSHOT_CASES = [
    ("tdx/relaxed", "tdx", 65536, 16, 0,
     dict(count=16, rate_per_s=4.0, mean_prompt=128, mean_output=32, seed=2)),
    ("baremetal/preempting", "baremetal", 1024, 8, 0,
     dict(count=20, rate_per_s=2.0, mean_prompt=96, mean_output=48, seed=7)),
    ("cgpu/bursty", "cgpu", 16384, 32, 0,
     dict(count=24, rate_per_s=8.0, mean_prompt=256, mean_output=64,
          seed=17)),
    ("baremetal/lookahead", "baremetal", 1024, 8, 4,
     dict(count=20, rate_per_s=2.0, mean_prompt=96, mean_output=48,
          seed=13)),
]


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


class TestSnapshotRestore:
    @pytest.mark.parametrize("label,backend,kv,batch,lookahead,stream",
                             SNAPSHOT_CASES,
                             ids=[c[0] for c in SNAPSHOT_CASES])
    def test_snapshot_restore_mid_run(self, label, backend, kv, batch,
                                      lookahead, stream):
        def make():
            if backend == "cgpu":
                deployment = gpu_deployment(confidential=True)
            else:
                deployment = cpu_deployment(backend, sockets_used=1)
            return ContinuousBatchingScheduler(
                deployment, LLAMA2_7B, BFLOAT16, kv_capacity_tokens=kv,
                max_batch=batch, admission_lookahead=lookahead)

        requests = poisson_stream(**stream)
        expected = make().run(requests)
        table = RequestTable.from_requests(requests)
        running = make()
        running.bind(table)
        for row in range(len(table)):
            running.submit(row)
        clock = 0.0
        while not running.idle and clock < 3.0:
            clock += 0.25
            running.step(clock)
        # The scheduler's snapshot names rows; the run's outcome log is
        # snapshotted beside it, once.
        payload = json.loads(json.dumps(
            {"scheduler": running.to_state(),
             "outcomes": running.outcomes.to_state()}))
        fresh = make()
        fresh.bind(table, OutcomeLog.from_state(payload["outcomes"],
                                                len(table)))
        fresh.from_state(payload["scheduler"])
        for scheduler in (running, fresh):
            while not scheduler.idle:
                clock += 0.25
                scheduler.step(clock)
        # Restored-and-finished equals carried-on-and-finished equals
        # one uninterrupted run().
        assert_reports_identical(expected, fresh.report())
        assert_reports_identical(running.report(), fresh.report())


class TestFinishedRecords:
    def test_finished_rows_land_in_the_outcome_log(self):
        """A finished row's timeline is written straight into the bound
        run's outcome log, with no per-scheduler copy to release."""
        scheduler = make_scheduler(max_batch=4)
        table = RequestTable.from_requests([ServeRequest(7, 0.0, 64, 8)])
        log = OutcomeLog(len(table))
        scheduler.bind(table, log)
        scheduler.submit(0)
        clock = 0.0
        done = []
        while not scheduler.idle:
            clock += 0.25
            done.extend(scheduler.step(clock))
        assert done == [0]
        assert 0.0 < log.first_token_s[0] <= log.finish_s[0]
        assert log.preemptions[0] == 0
        assert log.status[0] == OutcomeLog.FINISHED
        assert log.finished_rows().tolist() == [0]
        with pytest.raises(ValueError, match="already submitted"):
            scheduler.submit(0)
