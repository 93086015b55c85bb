"""Fleet and steppable-scheduler audit checks (all three families).

The continuous-batching scheduler and the fleet layer on top of it get
the same treatment as every other fast path in the repository: a
slower, simpler reference to diff against, a set of directional
invariants, and a golden snapshot of the headline capacity-planning
numbers.

* ``serving.legacy_loop_parity`` (differential) re-implements the
  original run-to-completion loop verbatim over a real
  :class:`~repro.llm.kvcache.PagedKVCache` and requires ``run()`` to
  reproduce it **bit-identically** — the scheduler's one independent
  reference.
* ``serving.step_run_parity`` (differential) drives the same stream
  through ``submit``/``step`` at several horizon cadences and requires
  exact equality with ``run()``.
* ``fleet.jump_parity`` (differential) runs every structurally distinct
  fleet regime twice — through ``run()``, which jumps quiet ticks, and
  through a plain ``begin_run``/``run_tick``/``finish_run`` loop — and
  requires exactly equal reports, plus a skipped tick in every regime
  where jumping is allowed, a retried timeout and a jump across a
  slowed replica in the sparse timeout/slowdown regime, a timeout
  fired on the tick a jump landed on in the faulted 64-replica regime,
  and a jump that replaced the step a tick deferred.
* ``fleet.route_parity`` (differential) runs overloaded, faulted,
  KV-pressure, WFQ-tenant, phased-boot and 64-way fleets once with the
  shipped load-heap routers and once with references that rescan the
  fleet per request, and requires exactly equal reports, plus ticks
  where the persistent heap re-keyed only the replicas that moved.  A
  backlogged TDX + cGPU fleet, fault-free and under crashes, slowdowns
  and timeouts, does the same for the cost/SLO router's price-ordered
  heap walk against a reference that estimates every routable replica
  per request, rescanning each waiting queue.
* ``serving.decode_event_parity`` (differential) runs fixed fleets
  over every admission policy x KV isolation mode, a preempting and a
  relaxed pool, with and without faults, once with the event-driven
  decode step and once with every step forced through the exact
  per-sequence path, and requires identical reports, outcome columns
  and mid-run snapshots.
* ``fleet.*`` metamorphic checks encode cluster-level physics: adding
  a replica never raises p99 TTFT under fixed load, requests are
  conserved through routing/autoscaling, fleet runs are deterministic.
* ``golden.fleet_capacity`` snapshots the capacity-planning sweep —
  replicas needed and $/Mtok at the p99 TTFT SLO for TDX and cGPU
  fleets on a fixed trace.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from itertools import islice

import numpy as np

from ..faults import (
    DegradationPolicy,
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
    mtbf_schedule,
)
from ..fleet import (
    AutoscalerConfig,
    CostSloRouter,
    FleetSimulator,
    KvPressureRouter,
    LeastOutstandingRouter,
    ReactiveAutoscaler,
    RequestTable,
    capacity_sweep,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from ..fleet.replica import BOOTING
from ..llm.kvcache import PagedKVCache
from ..serving.scheduler import ContinuousBatchingScheduler, poisson_stream
from .context import AuditContext
from .golden import _golden
from .registry import CheckFailure, check


def _legacy_run(scheduler: ContinuousBatchingScheduler, requests):
    """The pre-steppable run-to-completion loop, verbatim.

    A frozen transcription of the original
    ``ContinuousBatchingScheduler.run`` body (run state lived in
    locals, one monolithic while loop).  Returns per-request
    ``(first_token_s, finish_s, preemptions)`` plus the final clock —
    the ground truth the refactored ``run`` must match bit-for-bit.
    """
    cache = PagedKVCache(num_blocks=scheduler.num_blocks,
                         block_size=scheduler.block_size)
    waiting = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    timeline = {r.request_id: [0.0, 0.0, 0] for r in requests}
    running: list = []  # (request, generated) mutable pairs
    clock = 0.0
    preemptions = 0
    occupancy: list[int] = []

    while waiting or running:
        while (waiting and len(running) < scheduler.max_batch
               and waiting[0].arrival_s <= clock):
            request = waiting[0]
            try:
                cache.allocate(request.request_id, request.prompt_tokens)
            except MemoryError:
                break
            waiting.pop(0)
            clock += scheduler._costs.prefill_s(request.prompt_tokens)
            timeline[request.request_id][0] = clock
            running.append([request, 0])
        if not running:
            clock = max(clock, waiting[0].arrival_s)
            continue
        contexts = [entry[0].prompt_tokens + entry[1] for entry in running]
        mean_context = int(sum(contexts) / len(contexts))
        occupancy.append(len(running))
        clock += scheduler._costs.decode_step_s(len(running),
                                                max(1, mean_context))

        finished = []
        preempted_ids: set[int] = set()

        def preempt_youngest():
            victim = running[-1]
            cache.free(victim[0].request_id)
            timeline[victim[0].request_id][2] += 1
            victim[1] = 0
            running.remove(victim)
            waiting.insert(0, victim[0])
            preempted_ids.add(victim[0].request_id)
            return victim

        for entry in list(running):
            if entry[0].request_id in preempted_ids:
                continue
            appended = False
            while not appended:
                try:
                    cache.append_token(entry[0].request_id)
                    appended = True
                except MemoryError:
                    victim = preempt_youngest()
                    preemptions += 1
                    if victim is entry:
                        break
            if not appended:
                continue
            entry[1] += 1
            if entry[1] >= entry[0].output_tokens:
                finished.append(entry)
        for entry in finished:
            timeline[entry[0].request_id][1] = clock
            cache.free(entry[0].request_id)
            running.remove(entry)

    mean_occupancy = sum(occupancy) / len(occupancy) if occupancy else 0.0
    return timeline, clock, preemptions, mean_occupancy


def force_exact_decode(scheduler: ContinuousBatchingScheduler):
    """Send every decode step of ``scheduler`` through the exact path.

    An instance override of the decode run: each call takes one exact
    step, so admission and the horizon are checked after every step and
    the reference needs no production flag.  The scheduler is returned
    for chaining.
    """
    scheduler._decode_run = lambda stop_s: scheduler._decode_exact()
    return scheduler


def count_decode_paths(scheduler: ContinuousBatchingScheduler,
                       ) -> dict[str, int]:
    """Count how ``scheduler`` takes its decode steps.

    Returns a dict the counts accumulate in: ``exact`` steps through
    the exact path, fast ``runs``, fast runs of more than one step
    (``multi``) and fast runs that ended at their stop time, a horizon
    or an arrival (``cut``).  Fast steps are the scheduler's total
    decode steps minus ``exact``.
    """
    counts = dict.fromkeys(("exact", "runs", "multi", "cut"), 0)
    exact, run = scheduler._decode_exact, scheduler._decode_run

    def counted_exact() -> list[int]:
        counts["exact"] += 1
        return exact()

    def counted_run(stop_s: float) -> list[int]:
        exact_before, steps_before = counts["exact"], scheduler._steps
        finished = run(stop_s)
        if counts["exact"] == exact_before:
            counts["runs"] += 1
            counts["multi"] += scheduler._steps - steps_before > 1
            counts["cut"] += not finished and scheduler.clock_s >= stop_s
        return finished

    scheduler._decode_exact = counted_exact
    scheduler._decode_run = counted_run
    return counts


def _serving_cases(ctx: AuditContext):
    """(label, scheduler-factory, stream) cases shared by the parity checks."""
    def scheduler(backend: str, kv: int, batch: int):
        deployment = (ctx.gpu(confidential=True) if backend == "cgpu"
                      else ctx.cpu(backend))
        return ContinuousBatchingScheduler(deployment, ctx.model, ctx.dtype,
                                           kv_capacity_tokens=kv,
                                           max_batch=batch)
    return (
        ("tdx/relaxed", lambda: scheduler("tdx", 65536, 16),
         poisson_stream(16, 4.0, mean_prompt=128, mean_output=32, seed=2)),
        ("baremetal/preempting", lambda: scheduler("baremetal", 1024, 8),
         poisson_stream(20, 2.0, mean_prompt=96, mean_output=48, seed=7)),
        ("cgpu/bursty", lambda: scheduler("cgpu", 16384, 32),
         poisson_stream(24, 8.0, mean_prompt=256, mean_output=64, seed=17)),
        # A small pool under a high rate: dozens of preempting steps.
        ("tdx/preemption-storm", lambda: scheduler("tdx", 1024, 16),
         poisson_stream(40, 20.0, mean_prompt=96, mean_output=160, seed=5)),
    )


@check("serving.legacy_loop_parity", family="differential",
       layers=("serving", "fleet"))
def legacy_loop_parity(ctx: AuditContext) -> str:
    """run() reproduces the pre-steppable monolithic loop bit-identically."""
    checked = 0
    for label, make, stream in _serving_cases(ctx):
        report = make().run(stream)
        timeline, clock, preemptions, occupancy = _legacy_run(make(), stream)
        if report.total_preemptions != preemptions:
            raise CheckFailure(f"{label}: preemption counts diverge")
        if report.mean_batch_occupancy != occupancy:
            raise CheckFailure(f"{label}: occupancy diverged")
        if report.start_s + report.makespan_s != clock:
            raise CheckFailure(
                f"{label}: end clock {report.start_s + report.makespan_s!r} "
                f"!= legacy {clock!r}")
        for outcome in report.outcomes:
            first, finish, preempts = timeline[outcome.request.request_id]
            # Bit-identical means float equality, not tolerance.
            if (outcome.first_token_s != first
                    or outcome.finish_s != finish
                    or outcome.preemptions != preempts):
                raise CheckFailure(
                    f"{label}: request {outcome.request.request_id} timeline "
                    f"diverged from the legacy loop")
            checked += 1
    return (f"{checked} request timelines bit-identical across "
            f"{len(_serving_cases(ctx))} streams")


#: Submission tick of the arrival-tick stepping check (the fleet's grid).
_SUBMIT_TICK_S = 0.25


def _tick_submitted(scheduler: ContinuousBatchingScheduler,
                    table: RequestTable, substeps: int | None):
    """Serve ``table`` the fleet's way: at tick ``k`` submit the rows
    that have arrived by ``k * _SUBMIT_TICK_S``, then step to it.

    ``substeps`` horizons per tick are spaced evenly up to the tick (1
    is the fleet's plain tick loop).  ``None`` is the quiet-tick jump:
    only ticks that submit are stepped to, after one call to the tick
    before them, and the tail runs to completion in one call.  Returns
    the report, the scheduler state at every submitting tick, and how
    many rows were submitted ahead of the clock of a replica with a
    running batch (each one must stop that batch's decode run at its
    arrival).
    """
    order = table.arrival_order().tolist()
    arrival = table.arrival_s
    states = []
    tick = head = ahead = 0
    while head < len(order) or (substeps is not None and not scheduler.idle):
        tick += 1
        now = tick * _SUBMIT_TICK_S
        due = head
        while due < len(order) and arrival[order[due]] <= now:
            due += 1
        if substeps is None:
            if due == head:
                continue
            scheduler.step(now - _SUBMIT_TICK_S)
        running = scheduler.outstanding > scheduler.queue_depth
        for row in order[head:due]:
            ahead += running and arrival[row] > scheduler.clock_s
            scheduler.submit(row)
        if due > head:
            states.append((tick, scheduler.to_state()))
        head = due
        for index in range(1, substeps or 1):
            scheduler.step(now - (1 - index / substeps) * _SUBMIT_TICK_S)
        scheduler.step(now)
    scheduler.step(None)
    return scheduler.report(), states, ahead


@check("serving.step_run_parity", family="differential",
       layers=("serving", "fleet"))
def step_run_parity(ctx: AuditContext) -> str:
    """submit()+step() at any cadence equals run() exactly, and with
    submissions at their arrival ticks any stepping cadence equals the
    plain tick loop under every admission x KV isolation policy."""
    from ..tenancy import TenantPopulation
    from .tenancy import _population

    horizons = (0.1, 5.0)  # fine- and coarse-grained stepping cadences
    checked = 0
    for label, make, stream in _serving_cases(ctx):
        expected = make().run(stream)
        for horizon in horizons:
            scheduler = make()
            table = RequestTable.from_requests(stream)
            scheduler.bind(table)
            for row in range(len(table)):
                scheduler.submit(row)
            clock = 0.0
            while not scheduler.idle:
                clock += horizon
                scheduler.step(clock)
            if not _same_timelines(expected, scheduler.report()):
                raise CheckFailure(
                    f"{label}: stepped horizon {horizon} diverged from run()")
            checked += 1

    # The dense stream fills the batch and preempts on the tight pool;
    # at half its rate the clock lags arrivals, so arrival stops bind.
    population = _population()
    half_rate = TenantPopulation(
        tuple(replace(tenant, rate_per_s=tenant.rate_per_s / 2)
              for tenant in population.tenants), seed=population.seed)
    policies = [("unarmed", None)] + [
        (f"{admission}/{isolation}",
         population.tenancy_config(admission=admission,
                                   kv_isolation=isolation))
        for admission in ("fcfs", "wfq")
        for isolation in ("shared", "partition", "shared-prefix")]
    streams = (("dense", population.table()),
               ("half-rate", half_rate.table()))
    ticked = preemptions = ahead = 0
    for label, tenancy in policies:
        for stream, table in streams:
            for kv_tokens in (2048, 65536):
                def make(kv_tokens=kv_tokens, tenancy=tenancy, table=table):
                    scheduler = ContinuousBatchingScheduler(
                        ctx.cpu("tdx"), ctx.model, ctx.dtype,
                        kv_capacity_tokens=kv_tokens, max_batch=8,
                        admission_lookahead=2, tenancy=tenancy)
                    scheduler.bind(table)
                    return scheduler
                where = f"{label} {stream} {kv_tokens}-token pool"
                want, want_states, early = _tick_submitted(make(), table, 1)
                for substeps in (4, None):
                    got, got_states, _ = _tick_submitted(make(), table,
                                                         substeps)
                    if got_states != want_states:
                        raise CheckFailure(
                            f"{where}: state at a submitting tick diverged "
                            f"at {substeps} substeps")
                    if not _same_timelines(want, got):
                        raise CheckFailure(
                            f"{where}: report diverged from the tick loop "
                            f"at {substeps} substeps")
                    ticked += 1
                preemptions += want.total_preemptions
                ahead += early
    if not preemptions:
        raise CheckFailure("no arrival-tick run preempted")
    if not ahead:
        raise CheckFailure("no row was submitted ahead of a busy clock; "
                           "the decode run's arrival stop is unchecked")
    return (f"{checked} (stream, horizon) pairs equal run(); {ticked} "
            f"arrival-tick cadences over {len(policies)} policies equal the "
            f"tick loop ({preemptions} preemptions, {ahead} rows submitted "
            f"ahead of a busy clock)")


def _same_timelines(a, b) -> bool:
    """Bit-identical request timelines, makespan and occupancy."""
    return ([(o.first_token_s, o.finish_s, o.preemptions)
             for o in a.outcomes]
            == [(o.first_token_s, o.finish_s, o.preemptions)
                for o in b.outcomes]
            and a.makespan_s == b.makespan_s
            and a.mean_batch_occupancy == b.mean_batch_occupancy)


# -- fleet metamorphic checks -------------------------------------------------

def _fleet_stream():
    return poisson_table(40, rate_per_s=4.0, mean_prompt=128,
                         mean_output=32, seed=11)


def _tdx_spec():
    return replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)


#: The regime whose retry timeouts and slowdown faults fall inside
#: quiet stretches: ``fleet.jump_parity`` requires both to be crossed by
#: exact jumps there.  Slowdowns evacuate nothing, so every retry in it
#: is a timeout.
SLOWED_SPARSE = "sparse 0.5 req/s + timeouts/slowdowns"

#: The 64-replica regime with MTBF crashes, hangs and slowdowns and
#: retry timeouts short enough to fire inside quiet stretches:
#: ``fleet.jump_parity`` requires every fault kind to land and a
#: timeout to fire on the tick a jump landed on.
WIDE_FAULTED = "64x sparse + mtbf crashes/hangs/slowdowns + timeouts"

#: Fault kinds of :data:`WIDE_FAULTED`.
WIDE_FAULT_KINDS = (("crash", 0.4), ("hang", 0.3), ("slowdown", 0.3))


def _wide_stream(requests: int = 300, rate_per_s: float = 4.0, seed: int = 11,
                 mean_prompt: int = 128, mean_output: int = 32):
    """A sparse stream for a 64-replica fleet (1/16 req/s per replica
    at the defaults)."""
    return poisson_table(requests, rate_per_s=rate_per_s,
                         mean_prompt=mean_prompt, mean_output=mean_output,
                         seed=seed)


def _wide_faults(seed: int) -> FaultSchedule:
    return mtbf_schedule(list(range(64)), mtbf_s=300.0, horizon_s=75.0,
                         seed=seed, kinds=WIDE_FAULT_KINDS)


def _jump_regimes() -> list[tuple[str, "callable", object, bool]]:
    """(label, fresh-fleet factory, stream, jumps) for every fleet regime.

    Covers fault-free, faulted, autoscaled, spill-router and sparse
    fleets, a sparse fleet whose retry timeouts and slowdowns fall
    inside quiet stretches (:data:`SLOWED_SPARSE`), a sparse 64-replica
    fleet fault-free and under MTBF faults with short timeouts
    (:data:`WIDE_FAULTED`), the 9 tenancy
    admission x isolation regimes, and phased boots fault-free, faulted
    and autoscaled.  Streams alternate between object lists and request
    tables, so ``begin_run``'s list-to-table conversion stays covered.
    ``jumps`` says whether ``run()`` must skip at least one quiet tick
    there: it is false exactly where ``_skip_quiet_ticks`` refuses for
    the whole run (an armed autoscaler).
    """
    from .attest import _phased_regimes, _stream as _boot_stream
    from .tenancy import _population, _regimes as _tenancy_regimes

    spec = _tdx_spec()
    faults = {
        "faults": mtbf_schedule([0, 1], mtbf_s=6.0, horizon_s=30.0, seed=3),
        "retry_policy": RetryPolicy(timeout_s=30.0, max_attempts=4, seed=3),
    }

    def autoscaled():
        return FleetSimulator([spec], scale_spec=spec,
                              autoscaler=ReactiveAutoscaler(AutoscalerConfig(
                                  max_replicas=4, scale_up_load=3.0,
                                  scale_down_load=0.5, cooldown_s=2.0,
                                  boot_latency_s=5.0)))

    def spill_router():
        return FleetSimulator(
            [spec, spec], router=CostSloRouter(slo_ttft_s=2.0),
            degradation=DegradationPolicy(mode="spill", max_hold_s=4.0,
                                          spill_boot_s=1.0, max_spill=2),
            scale_spec=spec, **faults)

    regimes = [
        ("fault-free", lambda: fixed_fleet(spec, 2), list(_fleet_stream()),
         True),
        ("faulted", lambda: fixed_fleet(spec, 2, **faults), _fleet_stream(),
         True),
        ("autoscaled", autoscaled, list(_fleet_stream()), False),
        ("spill-router/faulted", spill_router, _fleet_stream(), True),
        ("sparse 0.5 req/s", lambda: fixed_fleet(spec, 2),
         poisson_table(20, rate_per_s=0.5, mean_prompt=128, mean_output=32,
                       seed=11), True),
        (SLOWED_SPARSE, lambda: fixed_fleet(
            spec, 2, retry_policy=RetryPolicy(timeout_s=3.0, max_attempts=4,
                                              seed=3),
            faults=FaultSchedule((
                FaultEvent(3.0, "slowdown", 0, duration_s=7.1, factor=2.0),
                FaultEvent(16.0, "slowdown", 1, duration_s=9.3,
                           factor=1.5)))),
         poisson_table(20, rate_per_s=0.5, mean_prompt=128, mean_output=32,
                       seed=11), True),
        ("64x sparse", lambda: fixed_fleet(spec, 64), _wide_stream(), True),
        (WIDE_FAULTED, lambda: fixed_fleet(
            spec, 64, faults=_wide_faults(7),
            retry_policy=RetryPolicy(timeout_s=4.0, max_attempts=4, seed=7)),
         _wide_stream(), True),
    ]
    population = _population()
    for index, (label, tenant_spec, kwargs) in enumerate(
            _tenancy_regimes(population)):
        regimes.append((
            f"tenancy {label}",
            lambda tenant_spec=tenant_spec, kwargs=kwargs: fixed_fleet(
                tenant_spec, 2, **kwargs),
            list(population.table()) if index % 2 else population.table(),
            True))
    for index, (label, boot_spec, kwargs) in enumerate(_phased_regimes()):
        regimes.append((
            f"phased boot {label}",
            lambda boot_spec=boot_spec, kwargs=kwargs: fixed_fleet(
                boot_spec, 2, **kwargs),
            list(_boot_stream()) if index % 2 else _boot_stream(), True))
    boot_spec = _phased_regimes()[0][1]
    regimes.append((
        "phased boot tdx/autoscaled",
        lambda: FleetSimulator([boot_spec], autoscaler=ReactiveAutoscaler(
            AutoscalerConfig(min_replicas=1, max_replicas=3,
                             scale_up_load=2.0, scale_down_load=0.5,
                             cooldown_s=4.0))),
        list(_boot_stream(requests=36, rate_per_s=6.0, seed=3)), False))
    return regimes


def _run_jumping(sim: FleetSimulator, stream):
    """``sim.run(stream)``, the number of ticks it executed, the number
    of jumps it took while some replica was slowed, the number of jumps
    whose landing tick cancelled a timed-out flight, and the number of
    jumps that replaced a busy fleet's owed post-routing step."""
    ticks = slowed_jumps = timeout_landings = dropped = 0
    jumped = False
    tick, skip = sim.run_tick, sim._skip_quiet_ticks
    check_timeouts = sim._check_timeouts

    def counted() -> None:
        nonlocal ticks
        ticks += 1
        tick()

    def watched() -> None:
        nonlocal slowed_jumps, jumped, dropped
        slowed = any(r._slow_until_s is not None for r in sim.replicas)
        owed = sim._busy and sim._run.owed_s is not None
        before = sim.run_clock_s
        skip()
        jumped = sim.run_clock_s != before
        if slowed and jumped:
            slowed_jumps += 1
        if owed and jumped:
            dropped += 1

    def timed(now, state) -> None:
        # A timed-out flight is requeued or shed; landing the flights
        # that finished by ``now`` (an owed step) does neither.
        nonlocal timeout_landings
        before = len(state.retry_queue) + len(state.shed)
        check_timeouts(now, state)
        if jumped and len(state.retry_queue) + len(state.shed) > before:
            timeout_landings += 1

    sim.run_tick = counted
    sim._skip_quiet_ticks = watched
    sim._check_timeouts = timed
    return sim.run(stream), ticks, slowed_jumps, timeout_landings, dropped


def _count_steps(sim: FleetSimulator) -> Counter:
    """Count ``Replica.step`` calls on ``sim``'s replicas, present and
    provisioned later, as ``counts["steps"]``."""
    counts = Counter()

    def watch(replica):
        step = replica.step

        def counted(until_s):
            counts["steps"] += 1
            return step(until_s)
        replica.step = counted
        return replica

    provision = sim._provision
    sim._provision = lambda *args, **kwargs: watch(provision(*args,
                                                             **kwargs))
    for replica in sim.replicas:
        watch(replica)
    return counts


def _run_ticking(sim: FleetSimulator, stream):
    """The same run as a plain tick loop, and its tick count."""
    sim.begin_run(stream)
    ticks = 0
    while sim.run_active:
        sim.run_tick()
        ticks += 1
    return sim.finish_run(), ticks


@check("fleet.jump_parity", family="differential",
       layers=("fleet", "serving"))
def jump_parity(ctx: AuditContext) -> str:
    """run() jumping quiet ticks is bit-identical to ticking every one,
    and skips ticks in every regime where jumping is allowed."""
    regimes = _jump_regimes()
    jumped_ticks = ticked_ticks = compared = fewer_steps = dropped = 0
    for label, factory, stream, expect_jump in regimes:
        jumping, ticking = factory(), factory()
        run_steps, loop_steps = _count_steps(jumping), _count_steps(ticking)
        jumped, jumps, slowed_jumps, timeout_landings, replaced = (
            _run_jumping(jumping, stream))
        ticked, ticks = _run_ticking(ticking, stream)
        fewer_steps += run_steps["steps"] < loop_steps["steps"]
        dropped += replaced
        a, b = jumped.to_dict(), ticked.to_dict()
        if a != b:
            diverged = [key for key in a if a[key] != b.get(key)]
            raise CheckFailure(
                f"{label}: jumped report diverged from the tick loop in "
                f"{diverged[:4]}")
        if not len(ticked.outcomes):
            raise CheckFailure(f"{label}: no outcomes; check is vacuous")
        if "autoscaled" in label and not ticked.scale_events:
            raise CheckFailure(f"{label}: never scaled; check is vacuous")
        # Bit-identical means raw float equality, not tolerance.
        for column in ("request_id", "first_token_s", "finish_s",
                       "preemptions"):
            if not np.array_equal(getattr(jumped.outcomes, column),
                                  getattr(ticked.outcomes, column)):
                raise CheckFailure(
                    f"{label}: outcome column {column} diverged between "
                    f"run() and the tick loop")
        if expect_jump and jumps >= ticks:
            raise CheckFailure(
                f"{label}: run() executed all {ticks} ticks; expected it "
                f"to jump quiet ones")
        if label == SLOWED_SPARSE and not (ticked.retries and slowed_jumps):
            raise CheckFailure(
                f"{label}: {ticked.retries} timed-out requests retried and "
                f"{slowed_jumps} jumps crossed a slowed replica; the check "
                f"needs both, or it is vacuous")
        if label == WIDE_FAULTED:
            landed = {fault.event.kind for fault in ticked.fault_events
                      if not fault.effect.startswith("no-op")}
            wanted = {kind for kind, _ in WIDE_FAULT_KINDS}
            if landed != wanted or not timeout_landings:
                raise CheckFailure(
                    f"{label}: faults {sorted(landed)} landed and "
                    f"{timeout_landings} jumps ended on a timeout; the "
                    f"check needs {sorted(wanted)} and one such jump, or "
                    f"it is vacuous")
        jumped_ticks += jumps
        ticked_ticks += ticks
        compared += len(ticked.outcomes)
    if not (fewer_steps and dropped):
        raise CheckFailure(
            f"run() took fewer replica steps than the tick loop in "
            f"{fewer_steps} regimes and {dropped} jumps replaced an owed "
            f"post-routing step; the check needs both, or it is vacuous")
    return (f"{compared} request timelines bit-identical across "
            f"{len(regimes)} regimes; run() executed {jumped_ticks} of "
            f"{ticked_ticks} ticks, took fewer replica steps than the "
            f"tick loop in {fewer_steps} and replaced {dropped} owed "
            f"steps with a jump's")


class _Rescan:
    """Routing reference that rescans the fleet per request.

    Within one :meth:`assign` call nothing is submitted until every
    pick is taken, so each rescan adds this call's earlier picks to
    what the replicas report: ``_picked[id]`` lists the prompts picked
    for replica ``id`` so far.  ``choose`` is a one-prompt ``assign``,
    so it starts from no picks.
    """

    def assign(self, prompts, replicas, now):
        self._picked: dict[int, list[int]] = {}
        prompts = iter(prompts)
        # Made now, so that an unroutable fleet raises at call time.
        first = self._pick(next(prompts), replicas, now)
        return self._pick_each(first, prompts, replicas, now)

    def _pick_each(self, first, prompts, replicas, now):
        yield first
        for prompt_tokens in prompts:
            yield self._pick(prompt_tokens, replicas, now)

    def _pick(self, prompt_tokens, replicas, now):
        chosen = self._rescan(prompt_tokens, replicas, now)
        self._picked.setdefault(chosen.replica_id, []).append(prompt_tokens)
        return chosen

    def _outstanding(self, replica) -> int:
        """Live outstanding plus this call's picks of ``replica``."""
        return replica.outstanding + len(self._picked.get(replica.replica_id,
                                                          ()))


class _ScanLeastOutstanding(_Rescan, LeastOutstandingRouter):
    """Least-outstanding as a full rescan per request (the reference)."""

    def _rescan(self, prompt_tokens, replicas, now):
        return min(self._routable(replicas),
                   key=lambda r: (self._outstanding(r), r.replica_id))


class _ScanKvPressure(_Rescan, KvPressureRouter):
    """KV pressure as a full rescan per request (the reference)."""

    def _rescan(self, prompt_tokens, replicas, now):
        return min(self._routable(replicas),
                   key=lambda r: (-r.kv_free_fraction, self._outstanding(r),
                                  r.replica_id))


def _scan_ttft_s(replica, prompt_tokens: int, now: float,
                 picked: list[int] = ()) -> float:
    """``Replica.estimated_ttft_s`` with the queued prefill rescanned:
    the ``math.fsum`` of ``prefill_s`` over the waiting queue and the
    ``picked`` prompts routed there but not yet submitted."""
    scheduler = replica.scheduler
    prefill_s = scheduler._costs.prefill_s
    prompts = scheduler._prompt
    queued = math.fsum([
        *(prefill_s(prompts[entry[-1]]) for entry
          in islice(scheduler._waiting, scheduler._head, None)),
        *map(prefill_s, picked)])
    estimate = max(0.0, scheduler.clock_s - now)
    estimate += scheduler._scaled(queued)
    estimate += scheduler._scaled(prefill_s(prompt_tokens))
    if replica.state == BOOTING:
        estimate += max(0.0, replica.ready_s - now)
    return estimate


class _ScanCostSlo(_Rescan, CostSloRouter):
    """Cost/SLO routing whose every TTFT estimate rescans the replica's
    waiting queue and this call's picks (the reference); counts its
    all-at-risk picks."""

    at_risk = 0

    def _rescan(self, prompt_tokens, replicas, now):
        candidates = self._routable(replicas)
        budget = self.slo_ttft_s * self.risk_factor

        def estimate(replica) -> float:
            return _scan_ttft_s(replica, prompt_tokens, now,
                                self._picked.get(replica.replica_id, ()))

        safe = [r for r in candidates if estimate(r) <= budget]
        if safe:
            return min(safe, key=lambda r: (r.spec.price_hr,
                                            self._outstanding(r),
                                            r.replica_id))
        self.at_risk += 1
        return min(candidates, key=lambda r: (estimate(r), r.replica_id))


#: Label prefix of the cost/SLO routing regimes: both tiers must serve
#: and some pick must find every replica at risk.
COST_SLO = "cost-slo 3x tdx + cgpu backlog"


def _route_regimes() -> list[tuple[str, type, "callable", object]]:
    """(label, policy, router -> fresh fleet, stream) for the routing
    audit.

    An overloaded 8-way fleet, the same with MTBF faults and retries,
    a KV-pressure fleet on a tight pool, WFQ tenants on shared
    prefixes, and a phased boot that holds every early arrival until
    the fleet is ready each route several rows in some tick.  Two
    sparse 64-way fleets, least-outstanding under MTBF crashes, hangs
    and slowdowns and KV pressure on a small pool, step few replicas
    between routing ticks, so the persistent heap re-keys only those.
    A TDX + cGPU fleet behind the cost/SLO router at 100 req/s of
    1k-token prompts builds a deep backlog, fault-free and under MTBF
    crashes and slowdowns with a retry timeout (which cancels queued
    rows and evacuates crashed queues).
    """
    from .attest import _phased_regimes, _stream as _boot_stream
    from .tenancy import _population, _spec as _tenant_spec

    spec = _tdx_spec()
    overload = poisson_table(320, rate_per_s=160.0, mean_prompt=128,
                             mean_output=32, seed=13)
    faults = {
        "faults": mtbf_schedule(list(range(8)), mtbf_s=4.0, horizon_s=8.0,
                                seed=13),
        "retry_policy": RetryPolicy(timeout_s=15.0, max_attempts=4, seed=13),
    }
    tight = replica_spec("tdx", max_batch=16, kv_capacity_tokens=2048)
    population = _population()
    wfq_prefix = _tenant_spec(population, "wfq", "shared-prefix")
    boot_spec = _phased_regimes()[0][1]
    tiers = [replica_spec("tdx")] * 3 + [replica_spec("cgpu")]
    backlog = poisson_table(400, rate_per_s=100.0, mean_prompt=1024, seed=13)
    tier_faults = {
        "faults": mtbf_schedule(list(range(4)), mtbf_s=6.0, horizon_s=12.0,
                                seed=13, kinds=(("crash", 0.5),
                                                ("slowdown", 0.5))),
        "retry_policy": RetryPolicy(timeout_s=20.0, max_attempts=4, seed=13),
    }
    return [
        (COST_SLO, CostSloRouter,
         lambda router: FleetSimulator(tiers, router=router), backlog),
        (f"{COST_SLO}/faulted", CostSloRouter,
         lambda router: FleetSimulator(tiers, router=router, **tier_faults),
         backlog),
        ("8x tdx overload", LeastOutstandingRouter,
         lambda router: fixed_fleet(spec, 8, router=router), overload),
        ("8x tdx overload/faulted", LeastOutstandingRouter,
         lambda router: fixed_fleet(spec, 8, router=router, **faults),
         overload),
        ("kv-pressure tight pool", KvPressureRouter,
         lambda router: fixed_fleet(tight, 4, router=router),
         poisson_table(120, rate_per_s=40.0, mean_prompt=256,
                       mean_output=64, seed=13)),
        ("tenancy wfq/shared-prefix", LeastOutstandingRouter,
         lambda router: fixed_fleet(wfq_prefix, 2, router=router),
         population.table()),
        ("phased boot tdx/fault-free", LeastOutstandingRouter,
         lambda router: fixed_fleet(boot_spec, 2, router=router),
         _boot_stream()),
        ("64x tdx sparse/faulted", LeastOutstandingRouter,
         lambda router: fixed_fleet(
             spec, 64, router=router, faults=_wide_faults(13),
             retry_policy=RetryPolicy(timeout_s=15.0, max_attempts=4,
                                      seed=13)),
         _wide_stream(400, rate_per_s=5.0, seed=13)),
        ("64x kv-pressure small pool", KvPressureRouter,
         lambda router: fixed_fleet(
             replica_spec("tdx", max_batch=16, kv_capacity_tokens=4096),
             64, router=router),
         _wide_stream(400, rate_per_s=4.0, seed=13, mean_prompt=256,
                      mean_output=64)),
    ]


def _run_routing(sim: FleetSimulator, stream):
    """``sim.run(stream)``, the most rows routed in one tick, the
    number of routing calls that re-keyed only the replicas that moved
    since the previous one (load-heap routers), and how many cancels
    and evacuations took rows off a waiting queue."""
    most = rekeys = 0
    emptied = Counter()
    tick = sim.run_tick

    def counted() -> None:
        nonlocal most
        before = sum(r.requests_routed for r in sim.replicas)
        tick()
        most = max(most, sum(r.requests_routed for r in sim.replicas)
                   - before)

    def counted_rekey(moved) -> None:
        nonlocal rekeys
        rekeys += 1
        rekey(moved)

    def watch(scheduler, name: str) -> None:
        withdraw = getattr(scheduler, name)

        def watched(*args):
            queued = scheduler.queue_depth
            result = withdraw(*args)
            emptied[name] += scheduler.queue_depth < queued
            return result
        setattr(scheduler, name, watched)

    sim.run_tick = counted
    rekey = getattr(sim.router, "_rekey", None)
    if rekey is not None:
        sim.router._rekey = counted_rekey
    for replica in sim.replicas:
        watch(replica.scheduler, "cancel")
        watch(replica.scheduler, "evacuate")
    return sim.run(stream), most, rekeys, emptied


@check("fleet.route_parity", family="differential",
       layers=("fleet",))
def route_parity(ctx: AuditContext) -> str:
    """Load-heap routing equals rescanning the fleet per request."""
    references = {LeastOutstandingRouter: _ScanLeastOutstanding,
                  KvPressureRouter: _ScanKvPressure,
                  CostSloRouter: _ScanCostSlo}
    regimes = _route_regimes()
    compared = most = rekeyed = at_risk = 0
    emptied = Counter()
    for label, policy, factory, stream in regimes:
        knobs = {"slo_ttft_s": 10.0} if policy is CostSloRouter else {}
        shipped, batch, rekeys, withdrawn = _run_routing(
            factory(policy(**knobs)), stream)
        scan = references[policy](**knobs)
        reference = factory(scan).run(stream)
        if policy is CostSloRouter:
            at_risk += scan.at_risk
            emptied += withdrawn
            kinds = {usage.kind for usage in reference.replicas
                     if usage.requests_served}
            if kinds != {"tdx", "cgpu"}:
                raise CheckFailure(
                    f"{label}: only {sorted(kinds)} replicas served; the "
                    f"check needs both tiers, or it is vacuous")
        a, b = shipped.to_dict(), reference.to_dict()
        if a != b:
            diverged = [key for key in a if a[key] != b.get(key)]
            raise CheckFailure(
                f"{label}: heap routing diverged from the rescan in "
                f"{diverged[:4]}")
        for column in ("request_id", "first_token_s", "finish_s",
                       "preemptions"):
            if not np.array_equal(getattr(shipped.outcomes, column),
                                  getattr(reference.outcomes, column)):
                raise CheckFailure(
                    f"{label}: outcome column {column} diverged between "
                    f"heap routing and the rescan")
        if label.startswith("64x") and not rekeys:
            raise CheckFailure(
                f"{label}: every routing call rebuilt the load heap; the "
                f"moved-only re-key is not exercised")
        most = max(most, batch)
        rekeyed += rekeys
        compared += len(reference.outcomes)
    if most < 2:
        raise CheckFailure("no tick routed more than one row; check is "
                           "vacuous")
    if not (at_risk and emptied["cancel"] and emptied["evacuate"]):
        raise CheckFailure(
            f"{COST_SLO}: {at_risk} picks found every replica at risk, "
            f"{emptied['cancel']} cancels and {emptied['evacuate']} "
            f"evacuations emptied queued rows; the check needs all three, "
            f"or it is vacuous")
    return (f"{compared} request timelines bit-identical across "
            f"{len(regimes)} regimes; up to {most} rows routed per tick, "
            f"{rekeyed} ticks re-keyed only moved replicas; cost/SLO: "
            f"{at_risk} all-at-risk picks, {emptied['cancel']} queued "
            f"cancels, {emptied['evacuate']} queue evacuations")


def _decode_regimes() -> list[tuple[str, "callable", object]]:
    """(label, fresh-fleet factory, stream) for the decode-path audit.

    Unarmed FCFS plus FCFS and WFQ over every KV isolation mode, each on
    a tight pool that preempts and a relaxed one, each with and without
    MTBF crashes and retries.
    """
    from .tenancy import _population

    population = _population()
    faults = {
        "faults": mtbf_schedule([0, 1], mtbf_s=6.0, horizon_s=30.0, seed=3),
        "retry_policy": RetryPolicy(timeout_s=30.0, max_attempts=4, seed=3),
    }
    policies = [("unarmed", None)] + [
        (f"{admission}/{isolation}",
         population.tenancy_config(admission=admission,
                                   kv_isolation=isolation))
        for admission in ("fcfs", "wfq")
        for isolation in ("shared", "partition", "shared-prefix")]
    regimes = []
    for label, tenancy in policies:
        for pool, kv_tokens in (("tight", 2048), ("relaxed", 65536)):
            spec = replica_spec("tdx", max_batch=16,
                                kv_capacity_tokens=kv_tokens,
                                tenancy=tenancy)
            for suffix, kwargs in (("", {}), ("+faults", faults)):
                regimes.append((
                    f"{label} {pool}{suffix}",
                    lambda spec=spec, kwargs=kwargs: fixed_fleet(
                        spec, 2, **kwargs),
                    population.table()))
    return regimes


#: Run ticks at which the decode-path audit compares snapshots.
_SNAPSHOT_TICKS = (4, 12, 30, 60)


@check("serving.decode_event_parity", family="differential",
       layers=("serving", "fleet"))
def decode_event_parity(ctx: AuditContext) -> str:
    """Event-driven decode equals the exact per-sequence step everywhere."""
    from ..state.checkpoint import snapshot

    regimes = _decode_regimes()
    steps = preemptions = snapshots = 0
    paths: Counter[str] = Counter()
    for label, factory, stream in regimes:
        event, reference = factory(), factory()
        counters = [count_decode_paths(r.scheduler) for r in event.replicas]
        for replica in reference.replicas:
            force_exact_decode(replica.scheduler)
        event.begin_run(stream)
        reference.begin_run(stream)
        tick = 0
        while event.run_active or reference.run_active:
            if event.run_active != reference.run_active:
                raise CheckFailure(f"{label}: runs ended at different ticks")
            event.run_tick()
            reference.run_tick()
            tick += 1
            if tick in _SNAPSHOT_TICKS:
                if snapshot(event) != snapshot(reference):
                    raise CheckFailure(
                        f"{label}: snapshots diverged at tick {tick}")
                snapshots += 1
        got, want = event.finish_run(), reference.finish_run()
        if got.to_dict() != want.to_dict():
            raise CheckFailure(f"{label}: fleet reports diverged")
        for column in ("request_id", "first_token_s", "finish_s",
                       "preemptions"):
            if not np.array_equal(getattr(got.outcomes, column),
                                  getattr(want.outcomes, column)):
                raise CheckFailure(
                    f"{label}: outcome column {column} diverged")
        steps += sum(r.scheduler._occ_count for r in event.replicas)
        for counts in counters:
            paths.update(counts)
        preemptions += got.total_preemptions
    exact_steps = paths["exact"]
    if not preemptions:
        raise CheckFailure("no regime preempted; the exact path is unchecked")
    if not paths["multi"]:
        raise CheckFailure("no fast run covered more than one step")
    if not paths["cut"]:
        raise CheckFailure("no fast run was cut short by a horizon or an "
                           "arrival")
    return (f"{len(regimes)} regimes, {snapshots} mid-run snapshots "
            f"identical; {steps - exact_steps} fast steps in "
            f"{paths['runs']} runs and {exact_steps} exact of {steps} decode "
            f"steps, {preemptions} preemptions")


@check("fleet.replica_scaling_monotonic_tail", family="metamorphic",
       layers=("fleet", "serving"))
def replica_scaling_monotonic_tail(ctx: AuditContext) -> str:
    """Adding a replica never raises p99 TTFT under fixed load."""
    stream = _fleet_stream()
    spec = _tdx_spec()
    p99s = [fixed_fleet(spec, count).run(stream).ttft_percentile(99)
            for count in (1, 2, 3)]
    for earlier, later in zip(p99s, p99s[1:]):
        if later > earlier * (1.0 + ctx.tol.monotonic_slack_rel):
            raise CheckFailure(
                f"p99 TTFT rose when adding a replica: {earlier:.3f}s -> "
                f"{later:.3f}s", deltas={"earlier": earlier, "later": later})
    return " -> ".join(f"{p:.2f}s" for p in p99s)


@check("fleet.request_conservation", family="metamorphic",
       layers=("fleet", "serving"))
def fleet_request_conservation(ctx: AuditContext) -> str:
    """Routing and autoscaling never lose or duplicate a request."""
    from ..fleet import AutoscalerConfig, FleetSimulator, ReactiveAutoscaler
    stream = _fleet_stream()
    scaler = ReactiveAutoscaler(AutoscalerConfig(
        max_replicas=4, scale_up_load=3.0, scale_down_load=0.5,
        cooldown_s=2.0, boot_latency_s=5.0))
    report = FleetSimulator([_tdx_spec()], autoscaler=scaler).run(stream)
    served = sorted(o.request.request_id for o in report.outcomes)
    if served != [r.request_id for r in stream]:
        raise CheckFailure("request ids lost or duplicated across the fleet")
    if sum(u.requests_served for u in report.replicas) != len(stream):
        raise CheckFailure("per-replica routing counts do not sum to stream")
    if any(o.finish_s <= 0 or o.ttft_s < 0 for o in report.outcomes):
        raise CheckFailure("unserved or acausal outcome in fleet report")
    return (f"{len(stream)} requests over {len(report.replicas)} replicas, "
            f"peak {report.peak_replicas}")


@check("fleet.deterministic_replay", family="metamorphic",
       layers=("fleet",))
def fleet_deterministic_replay(ctx: AuditContext) -> str:
    """Same seed + config produce an identical fleet report."""
    stream = _fleet_stream()
    spec = _tdx_spec()
    first = fixed_fleet(spec, 2).run(stream).to_dict()
    second = fixed_fleet(spec, 2).run(stream).to_dict()
    if first != second:
        raise CheckFailure("fleet report not reproducible across runs")
    return f"{first['requests']} requests, report dicts identical"


# -- fleet golden snapshot ----------------------------------------------------

#: The committed capacity-planning trace: 60 requests at 4 req/s with
#: deterministic size variation (no RNG — the trace IS the config).
CAPACITY_TRACE = tuple((0.25 * i, 192 + (37 * i) % 160, 48 + (13 * i) % 48)
                       for i in range(60))

#: The p99 TTFT objective the capacity golden plans against.
CAPACITY_SLO_TTFT_S = 2.0


@_golden("fleet_capacity", "Fleet capacity plan: replicas and $/Mtok at SLO",
         layers=("fleet", "serving", "cost"))
def fleet_capacity(ctx: AuditContext) -> dict[str, float]:
    plans = capacity_sweep(max_replicas=6)
    series: dict[str, float] = {}
    for kind, plan in plans.items():
        if plan.replicas_needed is None:
            raise CheckFailure(
                f"{kind}: SLO unattainable within the swept fleet sizes")
        series[f"{kind}/replicas_needed"] = float(plan.replicas_needed)
        series[f"{kind}/usd_per_mtok_at_slo"] = plan.usd_per_mtok_at_slo
        series[f"{kind}/p99_ttft_at_slo_s"] = plan.plan_point.p99_ttft_s
        series[f"{kind}/attainment_at_slo"] = plan.plan_point.attainment
    return series
