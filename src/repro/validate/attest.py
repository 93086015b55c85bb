"""Phased-boot / attestation-tax audit checks (the ``attest`` family).

The phased cold-start lifecycle (:mod:`repro.tee.boot` layered under
:class:`repro.fleet.replica.Replica`) replaces the opaque
``boot_latency_s`` constant with a five-phase confidential boot —
PROVISIONING → ATTESTING → KEY_RELEASE → MODEL_DECRYPT → WEIGHT_LOAD —
whose sum *is* the boot latency.  Its acceptance contract:

* ``attest.boot_phase_conservation`` — phase durations sum exactly to
  the boot latency, schedule windows are contiguous, non-overlapping
  and end exactly at readiness, every sampled instant lands in exactly
  one phase (zero-length phases own no instants), and the
  restart-from-phase arithmetic telescopes.
* ``attest.legacy_constant_parity`` — a fleet armed with degenerate
  :func:`~repro.tee.boot.constant_profile` sequences is bit-identical
  to the legacy constant path: zero-boot fixed fleets (fault-free and
  faulted) and autoscaled scale-ups paying the same constant through
  either mechanism produce identical reports.
* ``attest.phased_request_conservation`` — phased-boot fleets, with
  and without re-attestation faults, serve nothing before the cold boot
  completes and conserve every submitted request.
* ``attest.mid_boot_resume_parity`` — a fleet snapshotted with a
  replica in *each* of the five boot phases (including after a
  mid-boot attestation restart) restores bit-identically.
* ``golden.attest_tax`` — committed snapshot of the attestation-tax
  table: $/Mtok and p99 TTFT deltas of phased vs legacy boots on the
  capacity and chaos headlines, plus the per-phase boot breakdown.
"""

from __future__ import annotations

import json

from ..faults import FaultEvent, FaultSchedule, RetryPolicy, mtbf_schedule
from ..fleet import (
    AutoscalerConfig,
    FleetSimulator,
    ReactiveAutoscaler,
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from ..llm.config import LLAMA2_7B, LLAMA2_70B
from ..llm.datatypes import BFLOAT16, INT8
from ..tee.boot import (
    BOOT_PHASES,
    DEFAULT_PROFILES,
    PHASE_LIVE,
    PROVISIONING,
    attest_tax_sweep,
    boot_breakdown,
    boot_profile,
    constant_profile,
)
from .context import AuditContext
from .golden import _golden
from .registry import CheckFailure, check

#: Fault mix whose repair paths are boot-profile-independent (an
#: ``attestation_failure`` outage intentionally differs: legacy pays
#: the drawn duration, phased pays the re-attestation remainder).
_BOOT_NEUTRAL_KINDS = (("crash", 0.4), ("hang", 0.2), ("slowdown", 0.2),
                       ("boot_failure", 0.2))


def _phased_spec(kind: str, **overrides):
    overrides.setdefault("max_batch", 8)
    overrides.setdefault("kv_capacity_tokens", 16384)
    return replica_spec(kind, boot=boot_profile(kind), **overrides)


def _stream(requests: int = 24, rate_per_s: float = 1.2, seed: int = 11):
    return poisson_table(requests, rate_per_s=rate_per_s,
                         mean_prompt=128, mean_output=48, seed=seed)


def _compare(label: str, reference: dict, candidate: dict) -> None:
    if reference != candidate:
        diverged = [key for key in reference
                    if reference[key] != candidate.get(key)]
        raise CheckFailure(f"{label}: reports diverged in {diverged[:4]}")


@check("attest.boot_phase_conservation", family="attest",
       layers=("tee", "fleet"))
def boot_phase_conservation(ctx: AuditContext) -> str:
    """Phase durations sum exactly to boot latency and partition the
    boot window: contiguous, non-overlapping, one phase per instant."""
    models = ((LLAMA2_7B, BFLOAT16), (LLAMA2_70B, INT8))
    instants = 0
    for kind, profile in sorted(DEFAULT_PROFILES.items()):
        for model, dtype in models:
            sequence = profile.sequence(model, dtype)
            if sum(sequence.durations) != sequence.total_s:
                raise CheckFailure(
                    f"{kind}/{model.name}: durations sum to "
                    f"{sum(sequence.durations)!r}, total_s is "
                    f"{sequence.total_s!r}")
            ready = 100.0
            windows = sequence.schedule(ready)
            # The first start is exact by construction; the last end
            # accumulates the durations forward, so it closes on
            # ``ready`` only to float ulps.
            if windows[0][1] != ready - sequence.total_s \
                    or abs(windows[-1][2] - ready) > 1e-9:
                raise CheckFailure(
                    f"{kind}/{model.name}: schedule does not span "
                    f"[ready - total, ready)")
            for (_, _, prev_end), (_, start, end) in zip(windows,
                                                         windows[1:]):
                if start != prev_end or end < start:
                    raise CheckFailure(
                        f"{kind}/{model.name}: windows not contiguous "
                        f"and ordered")
            # The restart arithmetic telescopes over the durations:
            # re-entering at phase i saves exactly the phases before it
            # (to float ulps — suffix sums round differently than the
            # running difference).
            if sequence.remaining_from(PROVISIONING) != sequence.total_s:
                raise CheckFailure(
                    f"{kind}/{model.name}: a provisioning restart does "
                    f"not pay the full boot")
            for phase, later, duration in zip(BOOT_PHASES, BOOT_PHASES[1:],
                                              sequence.durations):
                step = (sequence.remaining_from(phase)
                        - sequence.remaining_from(later))
                if abs(step - duration) > 1e-9:
                    raise CheckFailure(
                        f"{kind}/{model.name}: remaining_from telescopes "
                        f"{step!r} across {phase}, duration is "
                        f"{duration!r}")
            # Every sampled instant lands in exactly the phase whose
            # window contains it; zero-length phases own no instants.
            # Samples sit a hair inside each window: the schedule
            # accumulates durations forward while phase_at walks them
            # backward, so exact boundaries differ by float ulps.
            start = ready - sequence.total_s
            samples = []
            for _, begin, end in windows:
                if end - begin > 1e-5:
                    samples += [begin + 1e-6, (begin + end) / 2,
                                end - 1e-6]
            for instant in samples:
                owners = [phase for phase, begin, end in windows
                          if begin <= instant < end]
                if len(owners) != 1:
                    raise CheckFailure(
                        f"{kind}/{model.name}: t={instant:.3f} owned by "
                        f"{owners}")
                if sequence.phase_at(instant, ready) != owners[0]:
                    raise CheckFailure(
                        f"{kind}/{model.name}: phase_at(t={instant:.3f}) "
                        f"= {sequence.phase_at(instant, ready)}, window "
                        f"says {owners[0]}")
                instants += 1
            if sequence.phase_at(ready, ready) != PHASE_LIVE:
                raise CheckFailure(f"{kind}: not live at readiness")
            if sequence.phase_at(start - 7.5, ready) != PROVISIONING:
                raise CheckFailure(
                    f"{kind}: penalty-stretched instant did not park "
                    f"in provisioning")
    return (f"{instants} instants over {len(DEFAULT_PROFILES)} profiles "
            f"x {len(models)} models each land in exactly one phase")


@check("attest.legacy_constant_parity", family="attest",
       layers=("tee", "fleet"))
def legacy_constant_parity(ctx: AuditContext) -> str:
    """A constant_profile-armed fleet is bit-identical to the legacy
    boot-constant path, fault-free, faulted and through autoscaling."""
    compared = 0
    legacy = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384)
    armed = replica_spec("tdx", max_batch=8, kv_capacity_tokens=16384,
                         boot=constant_profile("tdx", 0.0))
    faulted = {
        "faults": mtbf_schedule([0, 1], mtbf_s=9.0, horizon_s=30.0,
                                seed=5, kinds=_BOOT_NEUTRAL_KINDS),
        "retry_policy": RetryPolicy(timeout_s=25.0, max_attempts=4, seed=5),
    }
    for label, kwargs in (("fault-free", {}), ("faulted", faulted)):
        a = fixed_fleet(legacy, 2, **kwargs).run(_stream())
        b = fixed_fleet(armed, 2, **kwargs).run(_stream())
        _compare(f"{label} zero-boot", a.to_dict(), b.to_dict())
        compared += 1
    # Scale-ups: the autoscaler constant vs the same constant expressed
    # as a degenerate boot profile on the scale spec.
    config = AutoscalerConfig(min_replicas=1, max_replicas=4,
                              scale_up_load=2.0, scale_down_load=0.5,
                              cooldown_s=4.0, boot_latency_s=9.0)
    scaled_armed = replica_spec("tdx", max_batch=8,
                                kv_capacity_tokens=16384,
                                boot=constant_profile("tdx", 9.0))
    pair = []
    for scale_spec in (legacy, scaled_armed):
        sim = FleetSimulator([legacy], autoscaler=ReactiveAutoscaler(config),
                             scale_spec=scale_spec)
        pair.append(sim.run(_stream(requests=36, rate_per_s=6.0, seed=3)))
    _compare("autoscaled constant", pair[0].to_dict(), pair[1].to_dict())
    compared += 1
    if not pair[0].scale_events:
        raise CheckFailure("autoscaled regime never scaled; check is "
                           "vacuous")
    return f"{compared} legacy/constant-profile fleet pairs bit-identical"


def _phased_regimes():
    """(label, spec, fleet-kwargs) grid: phased boots x faults."""
    faulted = {
        "faults": mtbf_schedule([0, 1], mtbf_s=10.0, horizon_s=45.0, seed=7),
        "retry_policy": RetryPolicy(timeout_s=30.0, max_attempts=4, seed=7),
    }
    return (
        ("tdx/fault-free", _phased_spec("tdx"), {}),
        ("tdx/faulted", _phased_spec("tdx"), faulted),
        ("cgpu/faulted", _phased_spec("cgpu"), faulted),
    )


@check("attest.phased_request_conservation", family="attest",
       layers=("tee", "fleet", "faults"))
def phased_request_conservation(ctx: AuditContext) -> str:
    """Phased boots never serve before readiness and never lose a
    request: no first token precedes the cold boot, and completed +
    shed equals submitted through re-attestation faults."""
    checked = 0
    for label, spec, kwargs in _phased_regimes():
        stream = _stream()
        report = fixed_fleet(spec, 2, **kwargs).run(stream)
        if len(report.outcomes) + len(report.shed) != len(stream):
            raise CheckFailure(
                f"{label}: {len(stream)} submitted but "
                f"{len(report.outcomes)} completed + {len(report.shed)} "
                f"shed")
        if not len(report.outcomes):
            raise CheckFailure(f"{label}: no outcomes; check is vacuous")
        boot_s = spec.boot_sequence().total_s
        first = min(outcome.first_token_s for outcome in report.outcomes)
        if first < boot_s:
            raise CheckFailure(
                f"{label}: first token at {first:.3f}s precedes the "
                f"{boot_s:.3f}s phased boot")
        checked += len(stream)
    return (f"{checked} requests conserved across "
            f"{len(_phased_regimes())} phased-boot regimes, none served "
            f"before readiness")


@check("attest.mid_boot_resume_parity", family="attest",
       layers=("tee", "fleet", "state"))
def mid_boot_resume_parity(ctx: AuditContext) -> str:
    """A fleet snapshotted with a replica in each boot phase — and
    after a mid-boot attestation restart — restores bit-identically."""
    spec = _phased_spec("tdx")
    sequence = spec.boot_sequence()
    # Deterministic mid-boot faults: an attestation failure while
    # replica 0 is still booting (restart from ATTESTING) and a crash
    # on replica 1 that reboots into the re-attestation path.
    faults = FaultSchedule((
        FaultEvent(time_s=12.0, kind="attestation_failure", replica_id=0,
                   duration_s=6.0),
        FaultEvent(time_s=6.0, kind="crash", replica_id=1,
                   restart_after_s=4.0),
    ))
    retry = RetryPolicy(timeout_s=60.0, max_attempts=4, seed=3)
    def fleet():
        return fixed_fleet(spec, 2, faults=faults, retry_policy=retry)

    requests = _stream(requests=20, rate_per_s=0.8, seed=5)
    baseline = fleet().run(requests).to_dict()
    running = fleet()
    running.begin_run(requests)
    snapshots: list[tuple[str, dict]] = []
    seen: set[str] = set()
    while running.run_active:
        running.run_tick()
        now = running.run_clock_s
        for replica in running.replicas:
            phase = replica.boot_phase(now)
            if phase is not None and phase not in seen:
                seen.add(phase)
                snapshots.append(
                    (phase, json.loads(json.dumps(running.to_state()))))
    missing = set(BOOT_PHASES) - seen
    if missing:
        raise CheckFailure(
            f"no snapshot captured in phases {sorted(missing)}; check is "
            f"vacuous")
    if running.finish_run().to_dict() != baseline:
        raise CheckFailure("taking the snapshots perturbed the run")
    for phase, payload in snapshots:
        fresh = fleet()
        fresh.from_state(payload)
        while fresh.run_active:
            fresh.run_tick()
        _compare(f"resume from {phase}", baseline,
                 fresh.finish_run().to_dict())
    return (f"{len(snapshots)} mid-boot snapshots (all {len(BOOT_PHASES)} "
            f"phases) restore exactly; reattest window "
            f"{sequence.remaining_from(BOOT_PHASES[1]):.2f}s exercised")


@check("attest.boot_scaling_metamorphic", family="attest",
       layers=("tee",))
def boot_scaling_metamorphic(ctx: AuditContext) -> str:
    """Boot durations respond to their inputs the way the model says:
    byte-proportional phases scale exactly with weight bytes, fixed
    phases never move, and every latency term adds only to its own
    phase."""
    verified = 0
    for kind in ("tdx", "sgx", "cgpu"):
        profile = DEFAULT_PROFILES[kind]
        base = profile.phase_durations(1e9)
        # Power-of-two byte scaling is exact in IEEE-754: decrypt and
        # load double, the fixed phases are bit-identical.
        doubled = profile.phase_durations(2e9)
        if doubled[3] != 2 * base[3] or doubled[4] != 2 * base[4]:
            raise CheckFailure(
                f"{kind}: byte-proportional phases did not scale 2x")
        if doubled[:3] != base[:3]:
            raise CheckFailure(f"{kind}: fixed phases moved with bytes")
        # int8 weights are half the bf16 bytes: the sequence builder
        # inherits the same proportionality through dtype.
        bf16 = profile.sequence(LLAMA2_7B, BFLOAT16)
        int8 = profile.sequence(LLAMA2_7B, INT8)
        if not (int8.duration_of(BOOT_PHASES[3])
                < bf16.duration_of(BOOT_PHASES[3])):
            raise CheckFailure(f"{kind}: int8 decrypt not cheaper")
        # Each override lands in exactly one phase of the sum.
        slower = boot_profile(kind, quote_s=profile.quote_s + 3.0)
        delta = (slower.sequence(LLAMA2_7B, BFLOAT16).total_s
                 - bf16.total_s)
        if abs(delta - 3.0) > 1e-9:
            raise CheckFailure(
                f"{kind}: +3s quote moved the total by {delta!r}")
        # A re-attestation is strictly cheaper than a cold boot, but
        # pays every confidential phase.
        reattest = bf16.remaining_from(BOOT_PHASES[1])
        if not (0 < reattest < bf16.total_s):
            raise CheckFailure(f"{kind}: reattest window out of bounds")
        if abs(reattest + bf16.duration_of(PROVISIONING)
               - bf16.total_s) > 1e-9:
            raise CheckFailure(
                f"{kind}: reattest does not exclude exactly provisioning")
        verified += 1
    return f"{verified} TEE profiles scale and compose as modeled"


# -- golden headline: the attestation-tax table -------------------------------

@_golden("attest_tax", "Attestation tax of phased confidential boots "
         "($/Mtok and p99 TTFT vs legacy, capacity + chaos headlines)",
         layers=("tee", "fleet"))
def attest_tax_series(ctx: AuditContext) -> dict[str, float]:
    series: dict[str, float] = {}
    for row in attest_tax_sweep():
        prefix = f"{row['kind']}_{row['scenario']}"
        for field, value in row.items():
            if field in ("kind", "scenario"):
                continue
            series[f"{prefix}_{field}"] = float(value)
    for row in boot_breakdown():
        for phase in BOOT_PHASES + ("total_s", "reattest_s"):
            series[f"boot_{row['kind']}_{phase}"] = float(row[phase])
    return series
