"""Chaos audit checks: fault-injection invariants (family ``chaos``).

The resilience layer (:mod:`repro.faults`) must never change physics it
does not model: arming the chaos machinery with an empty schedule has
to reproduce the fault-free fleet bit-for-bit, and under any seeded
fault schedule the fleet must conserve requests (each one completed or
shed exactly once), never bill a dead instance, and replay
deterministically.  These checks pin all of that:

* ``chaos.zero_fault_twin`` (differential in spirit) — a chaos-armed
  run with an empty schedule is **bit-identical** to the fault-free
  simulator, fixed fleet and autoscaled alike.
* ``chaos.request_conservation`` — submitted == completed + shed with
  no duplicates, and routing counts reconcile with retries, across a
  grid of MTBF schedules.
* ``chaos.billing_bounds`` — billed seconds never exceed the
  provisioned window; crashes only ever shrink a bill.
* ``chaos.deterministic_replay`` — same seeds, same schedule: the
  report, the fault timeline, and the shed ledger are identical.
* ``chaos.backoff_discipline`` — retry delays are monotone
  non-decreasing per attempt and deterministic per seed.
* ``chaos.slowdown_expiry`` (metamorphic) — a short slowdown ends: on a
  sparse one-replica fleet, requests arriving well after it expired
  have exactly the fault-free twin's timelines, under ``run`` and the
  plain tick loop alike.
* ``golden.chaos_mtbf`` — snapshot of the MTBF sweep: SLO attainment
  and $/Mtok degrading with failure rate for TDX and cGPU fleets.
"""

from __future__ import annotations

import numpy as np

from ..faults import (
    FaultEvent,
    FaultSchedule,
    RetryPolicy,
    mtbf_schedule,
    one_shot,
)
from ..faults.sweep import mtbf_sweep
from ..fleet import (
    AutoscalerConfig,
    FleetSimulator,
    ReactiveAutoscaler,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from .context import AuditContext
from .golden import _golden
from .registry import CheckFailure, check


def _spec(kind: str = "tdx"):
    return replica_spec(kind, max_batch=16, kv_capacity_tokens=65536)


def _stream(n: int = 14, seed: int = 11):
    return poisson_table(n, rate_per_s=4.0, mean_prompt=128,
                         mean_output=32, seed=seed)


@check("chaos.zero_fault_twin", family="chaos",
       layers=("faults", "fleet", "serving"))
def zero_fault_twin(ctx: AuditContext) -> str:
    """Chaos machinery armed with zero faults is bit-identical to the
    fault-free simulator (differential twin)."""
    cases = []
    stream = _stream()
    cases.append(("fixed/tdx",
                  fixed_fleet(_spec(), 2).run(stream),
                  fixed_fleet(_spec(), 2,
                              faults=FaultSchedule.empty()).run(stream)))
    cases.append(("fixed/cgpu",
                  fixed_fleet(_spec("cgpu"), 2).run(stream),
                  fixed_fleet(_spec("cgpu"), 2,
                              faults=FaultSchedule.empty()).run(stream)))

    def autoscaled(faults):
        scaler = ReactiveAutoscaler(AutoscalerConfig(
            max_replicas=4, scale_up_load=3.0, scale_down_load=0.5,
            cooldown_s=2.0, boot_latency_s=5.0))
        return FleetSimulator([_spec()], autoscaler=scaler,
                              faults=faults).run(stream)
    cases.append(("autoscaled/tdx", autoscaled(None),
                  autoscaled(FaultSchedule.empty())))

    for label, bare, armed in cases:
        bare_dict, armed_dict = bare.to_dict(), armed.to_dict()
        if bare_dict != armed_dict:
            diverged = [key for key in bare_dict
                        if bare_dict[key] != armed_dict.get(key)]
            raise CheckFailure(
                f"{label}: zero-fault chaos run diverged from the "
                f"fault-free baseline in {diverged[:4]}")
        # Bit-identical means float equality on the raw outcomes too,
        # not just the summary dict.
        for a, b in zip(bare.outcomes, armed.outcomes):
            if (a.first_token_s, a.finish_s) != (b.first_token_s,
                                                 b.finish_s):
                raise CheckFailure(
                    f"{label}: request {a.request.request_id} timeline "
                    f"diverged under the armed (empty) injector")
    return f"{len(cases)} configs bit-identical with the injector armed"


def _conservation_case(kind: str, seed: int, n: int):
    stream = _stream(n, seed=seed)
    schedule = mtbf_schedule([0, 1], mtbf_s=6.0, horizon_s=20.0, seed=seed)
    fleet = fixed_fleet(_spec(kind), 2, faults=schedule,
                        retry_policy=RetryPolicy(timeout_s=30.0,
                                                 max_attempts=3, seed=seed))
    return stream, fleet.run(stream)


@check("chaos.request_conservation", family="chaos",
       layers=("faults", "fleet", "serving"))
def chaos_request_conservation(ctx: AuditContext) -> str:
    """No request is lost or duplicated under fault schedules:
    submitted == completed + shed, each id exactly once."""
    checked = 0
    for kind, seed in (("tdx", 3), ("tdx", 9), ("cgpu", 5)):
        stream, report = _conservation_case(kind, seed, 12)
        completed = [o.request.request_id for o in report.outcomes]
        shed = [s.request.request_id for s in report.shed]
        if len(set(completed)) != len(completed):
            raise CheckFailure(f"{kind}/seed{seed}: duplicated completion")
        if set(completed) & set(shed):
            raise CheckFailure(
                f"{kind}/seed{seed}: request both completed and shed")
        if sorted(completed + shed) != [r.request_id for r in stream]:
            raise CheckFailure(
                f"{kind}/seed{seed}: submitted != completed + shed "
                f"({len(completed)} + {len(shed)} vs {len(stream)})")
        # Routing counts reconcile: every submission is either a first
        # attempt of a request that ever routed, or a retry.
        routed_once = len(completed) + sum(1 for s in report.shed
                                           if s.attempts > 0)
        submissions = sum(u.requests_served for u in report.replicas)
        if submissions != routed_once + report.retries:
            raise CheckFailure(
                f"{kind}/seed{seed}: replica routing counts "
                f"({submissions}) != first-routes ({routed_once}) + "
                f"retries ({report.retries})")
        checked += 1
    return f"{checked} fault schedules conserve all requests"


@check("chaos.billing_bounds", family="chaos",
       layers=("faults", "fleet", "cost"))
def chaos_billing_bounds(ctx: AuditContext) -> str:
    """Billed seconds never exceed the provisioned window, a released
    (unrecoverable) crash stops the meter, and waste attribution
    reconciles with the bill."""
    reports = [_conservation_case(kind, seed, 12)[1]
               for kind, seed in (("tdx", 3), ("cgpu", 5))]
    # One permanent crash (no scheduled restart): the instance is
    # released mid-run and must not be billed past its death.
    stream = _stream(12)
    released = fixed_fleet(
        _spec(), 2, faults=one_shot("crash", 1, 1.5),
        retry_policy=RetryPolicy(seed=0)).run(stream)
    reports.append(released)

    for report in reports:
        for usage in report.replicas:
            window_s = max(0.0, report.end_s - usage.provisioned_s)
            billed_s = usage.billed_hours * 3600.0
            if billed_s < 0:
                raise CheckFailure(f"replica {usage.replica_id}: "
                                   f"negative bill")
            if billed_s > window_s * (1 + 1e-12) + 1e-9:
                raise CheckFailure(
                    f"replica {usage.replica_id} ({usage.kind}): billed "
                    f"{billed_s:.3f}s exceeds provisioned window "
                    f"{window_s:.3f}s",
                    deltas={"billed_s": billed_s, "window_s": window_s})
            if usage.crashes and usage.retired_s is not None:
                released_window_s = max(0.0, usage.retired_s
                                        - usage.provisioned_s)
                if billed_s > released_window_s * (1 + 1e-12) + 1e-9:
                    raise CheckFailure(
                        f"replica {usage.replica_id}: billed past its "
                        f"unrecovered crash at t={usage.retired_s:g}s")
        total = report.goodput_cost_usd + report.wasted_cost_usd
        if abs(total - report.cost_usd) > 1e-9 * max(1.0, report.cost_usd):
            raise CheckFailure("cost attribution does not sum to the bill")
    dead = next(u for u in reports[-1].replicas if u.crashes)
    if dead.billed_hours * 3600.0 >= reports[-1].end_s - 1e-9:
        raise CheckFailure("released replica billed to end of run")
    return f"{len(reports)} fleets billed within provisioned windows"


@check("chaos.deterministic_replay", family="chaos",
       layers=("faults", "fleet"))
def chaos_deterministic_replay(ctx: AuditContext) -> str:
    """Same seeds + schedule: identical report, fault timeline and
    shed ledger across two runs."""
    _, first = _conservation_case("tdx", 3, 12)
    _, second = _conservation_case("tdx", 3, 12)
    if first.to_dict() != second.to_dict():
        raise CheckFailure("chaos report not reproducible across runs")
    if ([a.to_dict() for a in first.fault_events]
            != [a.to_dict() for a in second.fault_events]):
        raise CheckFailure("applied fault timeline diverged across runs")
    if ([s.to_dict() for s in first.shed]
            != [s.to_dict() for s in second.shed]):
        raise CheckFailure("shed ledger diverged across runs")
    return (f"{len(first.fault_events)} faults, {first.retries} retries "
            f"replayed identically")


@check("chaos.backoff_discipline", family="chaos", layers=("faults",))
def chaos_backoff_discipline(ctx: AuditContext) -> str:
    """Retry backoff is monotone non-decreasing per attempt and
    deterministic per (seed, request)."""
    policy = RetryPolicy(timeout_s=10.0, max_attempts=6,
                         backoff_base_s=0.5, jitter_frac=0.25, seed=13)
    twin = RetryPolicy(timeout_s=10.0, max_attempts=6,
                       backoff_base_s=0.5, jitter_frac=0.25, seed=13)
    for request_id in range(40):
        delays = [policy.backoff_s(request_id, retry)
                  for retry in range(1, 6)]
        if any(b < a for a, b in zip(delays, delays[1:])):
            raise CheckFailure(
                f"request {request_id}: backoff not monotone: {delays}")
        if delays != [twin.backoff_s(request_id, retry)
                      for retry in range(1, 6)]:
            raise CheckFailure(
                f"request {request_id}: backoff not deterministic")
    return "40 requests x 5 retries monotone and reproducible"


#: Arrivals after this instant come long after the slowdown of
#: ``chaos.slowdown_expiry`` expired (at 4 s) and the backlog it left
#: drained.
_EXPIRED_BY_S = 30.0


@check("chaos.slowdown_expiry", family="chaos",
       layers=("faults", "fleet", "serving"))
def chaos_slowdown_expiry(ctx: AuditContext) -> str:
    """A x4 slowdown from 1 s to 4 s leaves every request that arrives
    after 30 s exactly as the fault-free twin serves it, under run()
    and the plain tick loop; a slowdown that never expired would slow
    those too."""
    from .fleet import _run_ticking

    stream = poisson_table(40, rate_per_s=0.2, mean_prompt=128,
                           mean_output=16, seed=5)
    slowdown = FaultSchedule((FaultEvent(1.0, "slowdown", 0, duration_s=3.0,
                                         factor=4.0),))
    checked = 0
    for loop, serve in (("run", lambda sim: sim.run(stream)),
                        ("tick loop", lambda sim: _run_ticking(sim,
                                                               stream)[0])):
        bare = serve(fixed_fleet(_spec(), 1)).outcomes
        slowed_report = serve(fixed_fleet(_spec(), 1, faults=slowdown))
        slowed = slowed_report.outcomes
        if not any(event.effect.startswith("slowdown")
                   for event in slowed_report.fault_events):
            raise CheckFailure(f"{loop}: the slowdown never landed")
        if not (len(bare) == len(stream)
                and np.array_equal(bare.request_id, slowed.request_id)):
            raise CheckFailure(f"{loop}: a request was not served")
        same = ((bare.first_token_s == slowed.first_token_s)
                & (bare.finish_s == slowed.finish_s))
        late = bare.arrival_s > _EXPIRED_BY_S
        if not same[late].all():
            index = int(np.flatnonzero(late & ~same)[0])
            raise CheckFailure(
                f"{loop}: request {int(bare.request_id[index])} arrived at "
                f"{float(bare.arrival_s[index]):.2f}s, after the slowdown "
                f"expired, yet its timeline differs from the fault-free "
                f"twin's")
        if same[~late].all():
            raise CheckFailure(
                f"{loop}: the slowdown changed no timeline; check is "
                f"vacuous")
        checked += int(late.sum())
    return (f"{checked} late timelines equal the fault-free twin's under "
            f"run() and the tick loop")


# -- chaos golden snapshot ----------------------------------------------------

@_golden("chaos_mtbf",
         "Chaos MTBF sweep: SLO attainment and $/Mtok vs failure rate",
         layers=("faults", "fleet", "cost"))
def chaos_mtbf(ctx: AuditContext) -> dict[str, float]:
    rows = mtbf_sweep()
    series: dict[str, float] = {}
    for row in rows:
        label = ("inf" if row["mtbf_s"] is None
                 else f"{row['mtbf_s']:g}s")
        prefix = f"{row['kind']}/mtbf_{label}"
        series[f"{prefix}/slo_attainment"] = row["slo_attainment"]
        if row["usd_per_mtok"] is not None:
            series[f"{prefix}/usd_per_mtok"] = row["usd_per_mtok"]
        series[f"{prefix}/retries"] = float(row["retries"])
        series[f"{prefix}/wasted_tokens"] = float(row["wasted_tokens"])
        series[f"{prefix}/shed"] = float(row["shed"])
    return series
