"""Router policies and the reactive autoscaler, in isolation."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Workload, cpu_deployment
from repro.faults import (
    DegradationPolicy,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
    mtbf_schedule,
)
from repro.fleet import FleetSimulator, fixed_fleet, mmpp_table, poisson_table
from repro.fleet.autoscaler import AutoscalerConfig, ReactiveAutoscaler
from repro.fleet.replica import Replica, replica_spec
from repro.fleet.router import (
    CostSloRouter,
    KvPressureRouter,
    LeastOutstandingRouter,
    RoundRobinRouter,
    make_router,
)
from repro.fleet.table import RequestTable
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.scheduler import OutcomeLog, ServeRequest, poisson_stream
from repro.tee.boot import BootProfile, boot_profile
from repro.tenancy import TenantSpec, whale_mix
from repro.validate.fleet import (
    _ScanCostSlo,
    _ScanKvPressure,
    _ScanLeastOutstanding,
)

TDX = replica_spec("tdx", max_batch=8, kv_capacity_tokens=8192)
CGPU = replica_spec("cgpu", max_batch=8, kv_capacity_tokens=8192)


def live_replicas(*specs, stream=()):
    """Live replicas bound to one run of ``stream`` (rows = list order)."""
    replicas = [Replica(replica_id=i, spec=spec, provisioned_s=0.0,
                        boot_latency_s=0.0) for i, spec in enumerate(specs)]
    if stream:
        table = RequestTable.from_requests(stream)
        log = OutcomeLog(len(table))
        for replica in replicas:
            replica.scheduler.bind(table, log)
    return replicas


def request(request_id=0, arrival=0.0, prompt=64, output=8):
    return ServeRequest(request_id, arrival, prompt, output)


class TestRouters:
    def test_round_robin_cycles(self):
        replicas = live_replicas(TDX, TDX, TDX)
        router = RoundRobinRouter()
        picks = [router.choose(64, replicas, 0.0).replica_id
                 for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_prefers_empty(self):
        replicas = live_replicas(TDX, TDX, stream=[request(0)])
        replicas[0].submit(0)
        chosen = LeastOutstandingRouter().choose(64, replicas, 0.0)
        assert chosen.replica_id == 1

    def test_kv_pressure_prefers_free_pool(self):
        replicas = live_replicas(TDX, TDX,
                                 stream=[request(0, prompt=2048, output=8)])
        # Fill replica 0's pool without stepping (tokens stay allocated).
        replicas[0].submit(0)
        replicas[0].step(0.0)  # admit -> blocks allocated
        chosen = KvPressureRouter().choose(64, replicas, 0.0)
        assert chosen.replica_id == 1

    def test_cost_slo_prefers_cheap_until_risk(self):
        replicas = live_replicas(TDX, CGPU)
        router = CostSloRouter(slo_ttft_s=30.0)
        # Unloaded: cheap TDX wins despite being slower.
        assert router.choose(64, replicas, 0.0).replica_id == 0

    def test_cost_slo_spills_to_gpu_under_risk(self):
        replicas = live_replicas(TDX, CGPU, stream=[
            request(i, prompt=512, output=8) for i in range(40)])
        router = CostSloRouter(slo_ttft_s=1.0, risk_factor=0.5)
        # Pile queued prefill work on the TDX replica until its TTFT
        # estimate blows the SLO budget; the router must spill.
        for row in range(40):
            replicas[0].submit(row)
        chosen = router.choose(64, replicas, 0.0)
        assert chosen.replica_id == 1

    def test_no_routable_replica_raises(self):
        booting = [Replica(0, TDX, provisioned_s=0.0, boot_latency_s=60.0)]
        with pytest.raises(ValueError, match="no routable"):
            LeastOutstandingRouter().choose(64, booting, 0.0)

    def test_make_router_names(self):
        for kind in ("round-robin", "least-outstanding", "kv-pressure",
                     "cost-slo"):
            assert make_router(kind).name == kind
        with pytest.raises(ValueError, match="unknown router"):
            make_router("random")

    def test_cost_slo_validation(self):
        with pytest.raises(ValueError):
            CostSloRouter(0.0)
        with pytest.raises(ValueError):
            CostSloRouter(1.0, risk_factor=0.0)


#: (policy factory, per-request reference choice).  The heap policies
#: are pinned to the audit's full-rescan references; the base-path
#: policies to their own ``choose``, called once per request on a fresh
#: router.
ASSIGN_CASES = {
    "least-outstanding": (LeastOutstandingRouter,
                          lambda: _ScanLeastOutstanding().choose),
    "kv-pressure": (KvPressureRouter, lambda: _ScanKvPressure().choose),
    "round-robin": (RoundRobinRouter, lambda: RoundRobinRouter().choose),
    "cost-slo": (lambda: CostSloRouter(slo_ttft_s=1.0),
                 lambda: _ScanCostSlo(slo_ttft_s=1.0).choose),
}


def loaded_fleet(layout, prompts):
    """Replicas with ``layout`` = [(booting, load, stepped, spec)] per
    replica.

    Live replicas get ``load`` preloaded rows; ``stepped`` ones admit
    them so their KV pools differ.  Rows after the preload are left for
    the caller to route.
    """
    preload = sum(load for booting, load, _, _ in layout if not booting)
    stream = [request(i, prompt=prompts[i % len(prompts)])
              for i in range(preload + 50)]
    table = RequestTable.from_requests(stream)
    log = OutcomeLog(len(table))
    replicas = []
    row = 0
    for replica_id, (booting, load, stepped, spec) in enumerate(layout):
        replica = Replica(replica_id, spec, provisioned_s=0.0,
                          boot_latency_s=60.0 if booting else 0.0)
        replica.scheduler.bind(table, log)
        if not booting:
            for _ in range(load):
                replica.submit(row)
                row += 1
            if stepped:
                replica.step(0.0)
        replicas.append(replica)
    return replicas, row, [int(p) for p in table.prompt_tokens]


class TestAssign:
    @settings(max_examples=40, deadline=None)
    @given(layout=st.lists(st.tuples(st.booleans(), st.integers(0, 3),
                                     st.booleans(),
                                     st.sampled_from((TDX, CGPU))),
                           min_size=1, max_size=6),
           prompts=st.lists(st.sampled_from((64, 512, 1024, 2048)),
                            min_size=1, max_size=4),
           k=st.integers(1, 50))
    def test_assign_matches_choose_per_request(self, layout, prompts, k):
        """Every pick is taken before any submit, as the fleet does;
        the reference submits each pick before choosing the next."""
        if all(booting for booting, _, _, _ in layout):
            layout[0] = (False,) + layout[0][1:]
        for name, (policy, reference) in ASSIGN_CASES.items():
            replicas, first, prompt_of = loaded_fleet(layout, prompts)
            rows = range(first, first + k)
            picks = list(policy().assign([prompt_of[row] for row in rows],
                                         replicas, 0.0))
            for row, replica in zip(rows, picks):
                replica.submit(row)
            got = [replica.replica_id for replica in picks]
            replicas, first, prompt_of = loaded_fleet(layout, prompts)
            choose = reference()
            want = []
            for row in rows:
                replica = choose(prompt_of[row], replicas, 0.0)
                replica.submit(row)
                want.append(replica.replica_id)
            assert got == want, name

    @pytest.mark.parametrize("name", sorted(ASSIGN_CASES))
    def test_assign_raises_at_call_time_when_all_booting(self, name):
        booting = [Replica(i, TDX, provisioned_s=0.0, boot_latency_s=60.0)
                   for i in range(3)]
        # The call itself raises; the picks are never iterated.
        with pytest.raises(ValueError, match="no routable"):
            ASSIGN_CASES[name][0]().assign([64, 512], booting, 0.0)

    def test_unroutable_tick_holds_every_due_row_in_order(self):
        phased = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384,
                              boot=boot_profile("tdx"))
        calls = []

        class Counting(LeastOutstandingRouter):
            def assign(self, prompts, replicas, now):
                calls.append(now)
                return super().assign(prompts, replicas, now)

        sim = fixed_fleet(phased, 2, router=Counting(),
                          faults=FaultSchedule.empty(),
                          retry_policy=RetryPolicy(timeout_s=60.0))
        stream = [request(i, arrival=0.3 * i) for i in range(12)]
        sim.begin_run(stream)
        first_due = {}
        for _ in range(16):  # 4 s of ticks, all inside the boot
            sim.run_tick()
            now = sim.run_clock_s
            for row, req in enumerate(stream):
                if req.arrival_s <= now:
                    first_due.setdefault(row, now)
        assert all(not r.routable for r in sim.replicas)
        assert sim._run.held == sorted(first_due)
        assert sim.last_chaos.held_since == first_due
        # The router is asked only on ticks that had due rows.
        assert calls == sorted(set(
            now for now in (0.25 * t for t in range(1, 17))
            if any(req.arrival_s <= now for req in stream)))

    def test_request_too_large_for_pool_raises_out_of_run(self):
        stream = [request(0), request(1, prompt=9000)]
        with pytest.raises(ValueError, match="KV tokens"):
            fixed_fleet(TDX, 2).run(stream)


def routed(router, replicas, prompts, first_row=0):
    """Route ``prompts`` as one tick: take every pick, then submit each
    pick's row; the picked replica ids."""
    picks = list(router.assign(prompts, replicas, 0.0))
    for row, replica in enumerate(picks, start=first_row):
        replica.submit(row)
    return [replica.replica_id for replica in picks]


def count_estimates(replicas):
    """Wrap each replica's scheduler TTFT estimate (the router reads
    routable replicas' schedulers); the per-replica call counts."""
    counts = {replica.replica_id: 0 for replica in replicas}
    for replica in replicas:
        scheduler = replica.scheduler
        estimate = scheduler.estimated_ttft_s

        def counted(prompt_tokens, now, pending_units=0, estimate=estimate,
                    replica_id=replica.replica_id):
            counts[replica_id] += 1
            return estimate(prompt_tokens, now, pending_units)

        scheduler.estimated_ttft_s = counted
    return counts


class TestCostSloWalk:
    """The cost/SLO heap walk visits replicas in ``(price, outstanding,
    id)`` order and stops at the first safe one."""

    def test_price_and_load_ties_break_on_id(self):
        replicas = live_replicas(CGPU, TDX, TDX, TDX, stream=[
            request(i) for i in range(6)])
        router = CostSloRouter(slo_ttft_s=30.0)
        # The three TDX replicas tie on price, then on load; each pick
        # bumps the winner, so they take turns in id order.
        assert routed(router, replicas, [64] * 6) == [1, 2, 3, 1, 2, 3]

    def test_first_safe_replica_beats_a_lower_estimate(self):
        replicas = live_replicas(CGPU, TDX, TDX, stream=[
            request(0, prompt=2048), request(1, prompt=512),
            request(2, prompt=512)])
        router = CostSloRouter(slo_ttft_s=30.0)
        replicas[1].submit(0)
        estimates = [r.estimated_ttft_s(512, 0.0) for r in replicas]
        # The cGPU is the fastest, yet the idle TDX replica is the
        # cheapest and least loaded.
        assert estimates[0] < estimates[2] < estimates[1]
        assert routed(router, replicas, [512], first_row=1) == [2]
        # With one row each, the TDX replicas tie on load and the lower
        # id wins, although its queued 2048-token prompt gives it the
        # higher estimate.
        assert (replicas[1].estimated_ttft_s(512, 0.0)
                > replicas[2].estimated_ttft_s(512, 0.0))
        assert routed(router, replicas, [512], first_row=2) == [1]

    def test_all_at_risk_picks_least_estimate_then_id(self):
        replicas = live_replicas(TDX, CGPU, CGPU, TDX, stream=[
            request(i, prompt=1024) for i in range(4)])
        router = CostSloRouter(slo_ttft_s=0.01)
        for replica in replicas:
            assert replica.estimated_ttft_s(1024, 0.0) > 0.008
        # The idle cGPUs tie on estimate: id 1 first, then id 2 (whose
        # estimate is now the lower), then id 1 again.
        assert routed(router, replicas, [1024] * 3) == [1, 2, 1]

    def test_own_picks_count_toward_the_estimate(self):
        """Nothing is submitted until every pick is taken, so each TTFT
        estimate adds this call's earlier picks of that replica: a TDX
        replica holds two 1024-token prefills inside the budget, the
        third spills to the cGPU, as if each pick had been submitted."""
        stream = [request(i, prompt=1024) for i in range(6)]
        replicas = live_replicas(TDX, TDX, CGPU, stream=stream)
        prefill = replicas[0].estimated_ttft_s(1024, 0.0)
        router = CostSloRouter(slo_ttft_s=4.0)
        assert 2 * prefill <= 0.8 * 4.0 < 3 * prefill
        assert routed(router, replicas, [1024] * 6) == [0, 1, 0, 1, 2, 2]
        replicas = live_replicas(TDX, TDX, CGPU, stream=stream)
        choose = CostSloRouter(slo_ttft_s=4.0).choose
        want = []
        for row in range(6):
            replica = choose(1024, replicas, 0.0)
            replica.submit(row)
            want.append(replica.replica_id)
        assert want == [0, 1, 0, 1, 2, 2]

    def test_cancel_rekeys_the_replica_for_the_next_pick(self):
        replicas = live_replicas(TDX, TDX, stream=[
            request(i) for i in range(4)])
        router = CostSloRouter(slo_ttft_s=30.0)
        router._note_moved(None)
        assert routed(router, replicas, [64] * 3) == [0, 1, 0]
        assert replicas[0].cancel(0) == 0
        fills = []
        fill = router._fill

        def counted_fill(routable):
            fills.append(len(routable))
            fill(routable)

        router._fill = counted_fill
        # Only replica 0 moved: its entry is re-keyed in place of a
        # rebuild, and the pick finds it level with replica 1 again.
        router._note_moved({0})
        assert routed(router, replicas, [64], first_row=3) == [0]
        assert fills == []

    def test_pick_estimates_each_routable_replica_at_most_once(self):
        replicas = live_replicas(TDX, TDX, CGPU, TDX, stream=[
            request(i, prompt=1024) for i in range(10)])
        booting = Replica(4, TDX, provisioned_s=0.0, boot_latency_s=60.0)
        replicas.append(booting)
        counts = count_estimates(replicas)
        router = CostSloRouter(slo_ttft_s=0.01)
        router._note_moved(None)
        routed(router, replicas, [1024])
        # Every replica is at risk, so each routable one is read once.
        assert counts == {0: 1, 1: 1, 2: 1, 3: 1, 4: 0}
        # Cancelling leaves a replaced entry in the heap; it is dropped,
        # not estimated, when the walk reaches it.
        picked = next(r for r in replicas if r.outstanding)
        picked.cancel(0)
        router._note_moved({picked.replica_id})
        counts.update(dict.fromkeys(counts, 0))
        picks = router.assign([1024], replicas, 0.0)
        assert len(router._heap) > len(router._current)
        next(picks).submit(1)
        assert counts == {0: 1, 1: 1, 2: 1, 3: 1, 4: 0}
        # With room in the budget the walk stops at the first replica.
        router.slo_ttft_s = 30.0
        counts.update(dict.fromkeys(counts, 0))
        assert routed(router, replicas, [1024], first_row=2) == [0]
        assert sum(counts.values()) == 1


class TestReplicaLifecycle:
    def test_boot_then_live_then_drain_then_retire(self):
        replica = Replica(0, TDX, provisioned_s=10.0, boot_latency_s=5.0)
        assert replica.state == "booting" and not replica.routable
        replica.activate_if_ready(12.0)
        assert replica.state == "booting"
        replica.activate_if_ready(15.0)
        assert replica.state == "live" and replica.routable
        # Clock floored at readiness: no serving in the past.
        assert replica.scheduler.clock_s >= 15.0
        replica.drain()
        assert replica.state == "draining" and not replica.routable
        replica.retire_if_drained(20.0)
        assert replica.state == "retired"
        assert replica.retired_s == 20.0

    def test_billing_covers_boot_and_drain(self):
        replica = Replica(0, TDX, provisioned_s=0.0, boot_latency_s=30.0)
        assert replica.billed_hours(end_s=3600.0) == pytest.approx(1.0)
        assert replica.cost_usd(3600.0) == pytest.approx(TDX.price_hr)
        replica.retired_s = 1800.0
        assert replica.billed_hours(end_s=3600.0) == pytest.approx(0.5)

    def test_submit_to_unroutable_rejected(self):
        replica = Replica(0, TDX, provisioned_s=0.0, boot_latency_s=60.0)
        with pytest.raises(ValueError, match="not routable"):
            replica.submit(0)

    def test_replica_spec_pricing(self):
        tdx = replica_spec("tdx")
        cgpu = replica_spec("cgpu")
        gpu = replica_spec("gpu")
        assert cgpu.price_hr > gpu.price_hr > tdx.price_hr
        small = replica_spec("tdx", cores=8)
        assert small.price_hr < tdx.price_hr
        with pytest.raises(ValueError, match="unknown replica kind"):
            replica_spec("asgx")


class TestAutoscaler:
    def config(self, **overrides):
        params = dict(min_replicas=1, max_replicas=4, scale_up_load=4.0,
                      scale_down_load=1.0, cooldown_s=10.0,
                      boot_latency_s=5.0)
        params.update(overrides)
        return AutoscalerConfig(**params)

    def test_scales_up_past_threshold(self):
        scaler = ReactiveAutoscaler(self.config())
        assert scaler.decide(0.0, outstanding=10, live_replicas=2,
                             active_replicas=2) == 1
        assert scaler.events[-1].action == "up"

    def test_cooldown_blocks_consecutive_decisions(self):
        scaler = ReactiveAutoscaler(self.config())
        assert scaler.decide(0.0, 10, 2, 2) == 1
        assert scaler.decide(5.0, 20, 2, 2) == 0  # within cooldown
        assert scaler.decide(10.0, 20, 2, 2) == 1

    def test_scale_down_respects_min_and_hysteresis(self):
        scaler = ReactiveAutoscaler(self.config(min_replicas=2))
        assert scaler.decide(0.0, 0, 3, 3) == -1
        scaler = ReactiveAutoscaler(self.config(min_replicas=2))
        assert scaler.decide(0.0, 0, 2, 2) == 0  # at the floor
        scaler = ReactiveAutoscaler(self.config())
        assert scaler.decide(0.0, 5, 2, 2) == 0  # between thresholds

    def test_max_replicas_cap(self):
        scaler = ReactiveAutoscaler(self.config(max_replicas=2))
        assert scaler.decide(0.0, 100, 2, 2) == 0

    def test_booting_capacity_counts(self):
        """Load is judged against bought capacity, not just live."""
        scaler = ReactiveAutoscaler(self.config())
        # 8 outstanding over 2 active (1 live + 1 booting) = 4.0: not > 4
        assert scaler.decide(0.0, 8, 1, 2) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalerConfig(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_up_load=1.0, scale_down_load=2.0)
        with pytest.raises(ValueError):
            AutoscalerConfig(cooldown_s=-1.0)


def tenant(**fields):
    return TenantSpec(**{"tenant_id": 0, "name": "t", "requests": 2,
                         "rate_per_s": 1.0, **fields})


#: Every public config boundary whose comparison guards once let NaN,
#: inf, a bool or a fractional count through (``repro.guards`` now
#: checks each where it enters).
INVALID_CONFIGS = [
    ("tick_s=nan", lambda: FleetSimulator([TDX], tick_s=math.nan),
     "tick_s"),
    ("tick_s=inf", lambda: FleetSimulator([TDX], tick_s=math.inf),
     "tick_s"),
    ("scale_up_load=nan",
     lambda: AutoscalerConfig(scale_up_load=math.nan), "scale_up_load"),
    ("price_hr=nan",
     lambda: dataclasses.replace(replica_spec("tdx"), price_hr=math.nan),
     "price_hr"),
    ("slo_ttft_s=nan", lambda: CostSloRouter(slo_ttft_s=math.nan),
     "slo_ttft_s"),
    ("poisson_stream rate=inf", lambda: poisson_stream(3, math.inf),
     "finite"),
    ("max_attempts=nan",
     lambda: RetryPolicy(timeout_s=1, max_attempts=math.nan), "max_attempts"),
    ("max_attempts=2.5",
     lambda: RetryPolicy(timeout_s=1, max_attempts=2.5), "max_attempts"),
    ("max_spill=nan", lambda: DegradationPolicy(max_spill=math.nan),
     "max_spill"),
    ("max_spill=1.5", lambda: DegradationPolicy(max_spill=1.5), "max_spill"),
    ("fault replica_id=nan",
     lambda: FaultEvent(time_s=1, kind="crash", replica_id=math.nan),
     "replica_id"),
    ("fault replica_id=1.5",
     lambda: FaultEvent(time_s=1, kind="crash", replica_id=1.5),
     "replica_id"),
    ("min_replicas=nan", lambda: AutoscalerConfig(min_replicas=math.nan),
     "min_replicas"),
    ("max_replicas=2.5", lambda: AutoscalerConfig(max_replicas=2.5),
     "max_replicas"),
    ("tenant requests=2.5", lambda: tenant(requests=2.5), "requests"),
    ("tenant mean_prompt=nan", lambda: tenant(mean_prompt=math.nan),
     "mean_prompt"),
    ("tenant priority=nan", lambda: tenant(priority=math.nan), "priority"),
    ("tenant tenant_id=nan", lambda: tenant(tenant_id=math.nan),
     "tenant_id"),
    ("whale_mix total_requests=100.5",
     lambda: whale_mix(total_requests=100.5), "total_requests"),
    ("workload batch_size=2.5",
     lambda: Workload(LLAMA2_7B, BFLOAT16, batch_size=2.5), "batch_size"),
    ("workload input_tokens=True",
     lambda: Workload(LLAMA2_7B, BFLOAT16, input_tokens=True),
     "input_tokens"),
    ("placement sockets_used=1.5",
     lambda: cpu_deployment("tdx", sockets_used=1.5), "sockets_used"),
    ("placement snc_clusters=2.5",
     lambda: cpu_deployment("tdx", snc_clusters=2.5), "snc_clusters"),
    ("placement cores_per_socket_used=True",
     lambda: cpu_deployment("tdx", cores_per_socket_used=True),
     "cores_per_socket_used"),
    ("kms_round_trips=nan",
     lambda: BootProfile("tdx", kms_round_trips=math.nan), "kms_round_trips"),
    ("kms_round_trips=1.5",
     lambda: BootProfile("tdx", kms_round_trips=1.5), "kms_round_trips"),
    ("poisson_table mean_prompt=-5",
     lambda: poisson_table(3, 1.0, mean_prompt=-5), "mean_prompt"),
    ("poisson_table mean_output=-5",
     lambda: poisson_table(3, 1.0, mean_output=-5), "mean_output"),
    ("poisson_table count=2.5", lambda: poisson_table(2.5, 1.0), "count"),
    ("mmpp_table count=True", lambda: mmpp_table(True, 1.0, 2.0), "count"),
    ("mtbf_schedule replica 0.5",
     lambda: mtbf_schedule([0.5], 100.0, 1000.0), "replica_id"),
    ("tick_s=True", lambda: FleetSimulator([replica_spec("tdx")], tick_s=True),
     "tick_s"),
]


@pytest.mark.parametrize("build,field",
                         [case[1:] for case in INVALID_CONFIGS],
                         ids=[case[0] for case in INVALID_CONFIGS])
def test_non_finite_config_rejected(build, field):
    with pytest.raises(ValueError, match=field):
        build()
