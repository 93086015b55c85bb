"""Phased confidential cold-start lifecycle (the attestation tax).

The fleet simulator originally priced cold starts as one opaque
``boot_latency_s`` constant.  Real confidential boot is a *sequence* —
the measurements on Hopper cGPUs (Zhu et al.) and IBM's cGPU study
both show attestation and encrypted weight load dominating TEE
startup.  This module makes each stage a first-class, separately
priced phase::

    PROVISIONING -> ATTESTING -> KEY_RELEASE -> MODEL_DECRYPT
                 -> WEIGHT_LOAD -> (live)

* :class:`BootProfile` carries the per-TEE latency terms: instance
  provisioning, quote generation + verification (TDX quote, SGX DCAP,
  cGPU SPDM/attestation), KMS secure-key-release round trips, and the
  decrypt/load throughputs that scale with the served model's weight
  bytes (:meth:`repro.llm.config.ModelConfig.weight_bytes`).
* :class:`BootSequence` freezes the profile against one model into
  concrete phase durations and answers the questions the fleet layer
  asks: total boot latency, which phase an instant falls in, and how
  long a restart from a given phase takes (an ``attestation_failure``
  mid-boot re-enters at ``ATTESTING``; provisioning is never repaid).

Everything is a pure function of the profile and the model bytes — no
randomness, no clocks — so phased boots keep fleet runs bit-
reproducible.  A spec with no profile keeps the legacy
constant path untouched; :func:`constant_profile` expresses any legacy
constant as a degenerate single-phase sequence for differential
testing (``attest.legacy_constant_parity``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import guards
from ..llm.config import ModelConfig
from ..llm.datatypes import DType

#: Timed boot phases, in lifecycle order.
PROVISIONING = "provisioning"
ATTESTING = "attesting"
KEY_RELEASE = "key_release"
MODEL_DECRYPT = "model_decrypt"
WEIGHT_LOAD = "weight_load"
BOOT_PHASES = (PROVISIONING, ATTESTING, KEY_RELEASE, MODEL_DECRYPT,
               WEIGHT_LOAD)

#: Terminal pseudo-phase: the boot sequence has completed.
PHASE_LIVE = "live"


@dataclass(frozen=True)
class BootProfile:
    """Per-TEE cold-start latency terms.

    Attributes:
        kind: Replica kind the profile describes (``tdx``, ``cgpu``...).
        provision_s: Infrastructure allocation: VM/TD create, guest
            kernel, serving runtime start.  The only phase a non-TEE
            instance pays besides loading weights.
        quote_s: Evidence generation plus verifier round trip — TDX
            TDREPORT+quote, SGX DCAP, or the cGPU SPDM session and
            GPU/CPU-TEE evidence bundle.  Zero for non-TEE kinds.
        kms_round_trip_s: Latency of one secure-key-release round trip
            to the KMS/HSM.
        kms_round_trips: Round trips before the wrapped model key is
            released (policy check, release, unwrap).
        decrypt_gbps: Model decrypt throughput (GB/s) once the key is
            released; ``None`` means the model is stored in plaintext
            and the decrypt phase is skipped entirely.
        load_gbps: Weight load/copy throughput (GB/s) into the serving
            address space (EPC paging for SGX, encrypted-PCIe bounce
            buffers for cGPU); ``None`` loads instantly (degenerate
            profiles only).
    """

    kind: str
    provision_s: float = 0.0
    quote_s: float = 0.0
    kms_round_trip_s: float = 0.0
    kms_round_trips: int = 0
    decrypt_gbps: float | None = None
    load_gbps: float | None = None

    def __post_init__(self) -> None:
        for name in ("provision_s", "quote_s", "kms_round_trip_s"):
            guards.finite(name, getattr(self, name), ge=0)
        guards.count("kms_round_trips", self.kms_round_trips, ge=0)
        for name in ("decrypt_gbps", "load_gbps"):
            if getattr(self, name) is not None:
                guards.finite(name, getattr(self, name), gt=0)

    def fingerprint(self) -> dict:
        """Identity of the latency terms, for snapshot integrity checks."""
        return {
            "kind": self.kind,
            "provision_s": self.provision_s,
            "quote_s": self.quote_s,
            "kms_round_trip_s": self.kms_round_trip_s,
            "kms_round_trips": self.kms_round_trips,
            "decrypt_gbps": self.decrypt_gbps,
            "load_gbps": self.load_gbps,
        }

    def phase_durations(self, model_bytes: float) -> tuple[float, ...]:
        """Seconds spent in each of :data:`BOOT_PHASES` for a model.

        The byte-proportional phases divide by throughput in GB/s; the
        key-release phase only exists when there is a key to release
        (an encrypted model).
        """
        guards.finite("model_bytes", model_bytes, ge=0)
        decrypt_s = (model_bytes / (self.decrypt_gbps * 1e9)
                     if self.decrypt_gbps is not None else 0.0)
        release_s = (self.kms_round_trips * self.kms_round_trip_s
                     if self.decrypt_gbps is not None else 0.0)
        load_s = (model_bytes / (self.load_gbps * 1e9)
                  if self.load_gbps is not None else 0.0)
        return (self.provision_s, self.quote_s, release_s, decrypt_s,
                load_s)

    def sequence(self, model: ModelConfig, dtype: DType) -> "BootSequence":
        """Freeze this profile against a served model's weight bytes."""
        return BootSequence(
            kind=self.kind,
            durations=self.phase_durations(model.weight_bytes(dtype.bytes)))


@dataclass(frozen=True)
class BootSequence:
    """A profile frozen against one model: concrete phase durations.

    The sequence is anchored *backwards* from readiness: given a
    replica's ``ready_s``, phase windows are
    ``[ready - total, ready)`` split by the durations.  Anchoring on
    readiness (rather than provisioning) means a boot stretched by a
    queued ``boot_failure`` penalty, or restarted mid-way from
    ``ATTESTING``, still maps every remaining instant to exactly one
    phase — the extra time parks in the earliest phase.
    """

    kind: str
    durations: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.durations) != len(BOOT_PHASES):
            raise ValueError(
                f"need {len(BOOT_PHASES)} phase durations, "
                f"got {len(self.durations)}")
        for phase, duration in zip(BOOT_PHASES, self.durations):
            guards.finite(f"{phase} duration", duration, ge=0)

    @property
    def total_s(self) -> float:
        """Provision-to-ready latency: the exact sum of the phases."""
        return sum(self.durations)

    def duration_of(self, phase: str) -> float:
        """Seconds the sequence spends in ``phase``."""
        return self.durations[_phase_index(phase)]

    def remaining_from(self, phase: str) -> float:
        """Boot time left when (re)entering the sequence at ``phase``.

        ``remaining_from(PROVISIONING)`` is the full boot; an
        ``attestation_failure`` restart pays
        ``remaining_from(ATTESTING)`` — everything except the already-
        provisioned instance.
        """
        return sum(self.durations[_phase_index(phase):])

    def phase_at_remaining(self, remaining_s: float) -> str:
        """The phase underway with ``remaining_s`` left before ready.

        Phase windows are half-open on the ready side: with exactly one
        load-phase worth of time left the instance is loading weights;
        with zero left it is live.  Time beyond the nominal total
        (penalty-stretched boots) parks in :data:`PROVISIONING`.
        Zero-length phases own no instants, so any instant lands in
        exactly one phase.
        """
        if remaining_s <= 0:
            return PHASE_LIVE
        for phase, duration in zip(reversed(BOOT_PHASES),
                                   reversed(self.durations)):
            if remaining_s <= duration:
                return phase
            remaining_s -= duration
        return PROVISIONING

    def phase_at(self, now_s: float, ready_s: float) -> str:
        """The phase underway at ``now_s`` for a boot ready at ``ready_s``."""
        return self.phase_at_remaining(ready_s - now_s)

    def schedule(self, ready_s: float) -> tuple[tuple[str, float, float], ...]:
        """Nominal ``(phase, start_s, end_s)`` windows ending at ``ready_s``.

        Windows are contiguous, non-overlapping and in lifecycle order;
        the last window ends exactly at ``ready_s`` and the first
        starts at ``ready_s - total_s``.
        """
        windows = []
        start = ready_s - self.total_s
        for phase, duration in zip(BOOT_PHASES, self.durations):
            windows.append((phase, start, start + duration))
            start += duration
        return tuple(windows)

    def to_state(self) -> dict:
        """Plain-dict snapshot (JSON-serializable)."""
        return {"kind": self.kind, "durations": list(self.durations)}


def _phase_index(phase: str) -> int:
    try:
        return BOOT_PHASES.index(phase)
    except ValueError:
        raise ValueError(f"unknown boot phase {phase!r}; expected one of "
                         f"{BOOT_PHASES}") from None


# -- per-TEE default profiles -------------------------------------------------

#: Cold-start latency terms per replica kind.  CPU TEE terms follow the
#: TDX-quote / SGX-DCAP measurements the paper's deployments rely on;
#: the cGPU terms follow the Hopper confidential-computing studies
#: (SPDM session + GPU evidence dominates the quote, encrypted-PCIe
#: bounce buffers throttle the load).  Non-TEE kinds pay provisioning
#: and a plaintext weight load only.
DEFAULT_PROFILES: dict[str, BootProfile] = {
    "baremetal": BootProfile("baremetal", provision_s=2.0, load_gbps=5.0),
    "vm": BootProfile("vm", provision_s=6.0, load_gbps=5.0),
    "gpu": BootProfile("gpu", provision_s=12.0, load_gbps=8.0),
    "tdx": BootProfile("tdx", provision_s=8.0, quote_s=2.0,
                       kms_round_trip_s=0.4, kms_round_trips=3,
                       decrypt_gbps=1.5, load_gbps=2.5),
    "sgx": BootProfile("sgx", provision_s=10.0, quote_s=3.0,
                       kms_round_trip_s=0.4, kms_round_trips=3,
                       decrypt_gbps=1.0, load_gbps=1.2),
    "cgpu": BootProfile("cgpu", provision_s=12.0, quote_s=5.0,
                        kms_round_trip_s=0.5, kms_round_trips=4,
                        decrypt_gbps=4.0, load_gbps=3.0),
}


def boot_profile(kind: str, **overrides: object) -> BootProfile:
    """The default profile for a replica kind, with optional overrides.

    Raises:
        ValueError: For kinds without a default profile.
    """
    try:
        base = DEFAULT_PROFILES[kind]
    except KeyError:
        raise ValueError(
            f"no default boot profile for kind {kind!r}; expected one of "
            f"{tuple(DEFAULT_PROFILES)}") from None
    if not overrides:
        return base
    terms = base.fingerprint()
    unknown = set(overrides) - set(terms)
    if unknown:
        raise ValueError(f"unknown boot profile terms {sorted(unknown)}")
    terms.update(overrides)
    return BootProfile(**terms)  # type: ignore[arg-type]


def constant_profile(kind: str, total_s: float) -> BootProfile:
    """A degenerate profile reproducing a legacy boot constant.

    All of ``total_s`` lands in :data:`PROVISIONING`; every other
    phase is zero-length.  A fleet built on constant profiles is
    bit-identical to one using the legacy ``boot_latency_s`` constants
    (the ``attest.legacy_constant_parity`` audit check pins this).
    """
    guards.finite("total_s", total_s, ge=0)
    return BootProfile(kind, provision_s=total_s)


# -- the attestation tax ------------------------------------------------------

#: TEE kinds the boot-breakdown table covers.
TAX_TEE_KINDS = ("tdx", "sgx", "cgpu")

#: Kinds the fleet-scale tax rows re-run (the headline cost rivals).
TAX_FLEET_KINDS = ("tdx", "cgpu")

#: Fleet sizes of the capacity headline (the smallest fleets meeting
#: the 2 s p99 TTFT SLO on the golden capacity trace under instant
#: boots — pinned by ``golden.fleet_capacity``).
CAPACITY_PLAN_REPLICAS = {"tdx": 3, "cgpu": 1}

#: Canonical column order of :func:`attest_tax_row`.
TAX_ROW_FIELDS = ("kind", "scenario", "boot_s", "reattest_s",
                  "legacy_usd_per_mtok", "phased_usd_per_mtok",
                  "tax_usd_per_mtok", "legacy_p99_ttft_s",
                  "phased_p99_ttft_s", "tax_p99_ttft_s",
                  "legacy_slo_attainment", "phased_slo_attainment")


def boot_breakdown(kinds: tuple[str, ...] = TAX_TEE_KINDS) -> list[dict]:
    """Per-phase boot seconds per TEE kind for the fleet's served model
    (the TDX replica's)."""
    model, dtype = _served_model("tdx")
    rows = []
    for kind in kinds:
        sequence = boot_profile(kind).sequence(model, dtype)
        row = {"kind": kind, "model": model.name}
        row.update({phase: duration for phase, duration
                    in zip(BOOT_PHASES, sequence.durations)})
        row["total_s"] = sequence.total_s
        row["reattest_s"] = sequence.remaining_from(ATTESTING)
        rows.append(row)
    return rows


def _tax_fleet(kind: str, phased: bool, scenario: str):
    """Build one scenario fleet, phased or legacy-instant boots."""
    from ..faults.resilience import RetryPolicy
    from ..faults.schedule import mtbf_schedule
    from ..fleet.cluster import fixed_fleet
    from ..fleet.replica import replica_spec

    boot = boot_profile(kind) if phased else None
    spec = replica_spec(kind, max_batch=16, kv_capacity_tokens=65536,
                        boot=boot)
    if scenario == "capacity":
        return fixed_fleet(spec, CAPACITY_PLAN_REPLICAS[kind])
    if scenario != "chaos":
        raise ValueError(f"unknown attest-tax scenario {scenario!r}")
    schedule = mtbf_schedule([0], mtbf_s=12.0, horizon_s=40.0, seed=7)
    retry = RetryPolicy(timeout_s=20.0, max_attempts=4, seed=7)
    return fixed_fleet(spec, 1, faults=schedule, retry_policy=retry)


def _tax_stream(scenario: str):
    """The scenario's request stream (headline traces, seeded)."""
    from ..fleet.arrivals import poisson_table, trace_replay
    from ..validate.fleet import CAPACITY_TRACE

    if scenario == "capacity":
        return trace_replay(list(CAPACITY_TRACE))
    return poisson_table(36, rate_per_s=1.5, mean_prompt=128,
                         mean_output=64, seed=7)


def attest_tax_row(kind: str, scenario: str,
                   slo_ttft_s: float = 2.0) -> dict:
    """One (kind, scenario) cell: legacy vs phased boots, same stream.

    The *tax* columns are the deltas a phased confidential boot adds
    over the legacy instant-boot headline: dollars per million tokens
    and p99 TTFT.
    """
    sequence = boot_profile(kind).sequence(
        *_served_model(kind))
    legacy = _tax_fleet(kind, False, scenario).run(_tax_stream(scenario))
    phased = _tax_fleet(kind, True, scenario).run(_tax_stream(scenario))
    return {
        "kind": kind,
        "scenario": scenario,
        "boot_s": sequence.total_s,
        "reattest_s": sequence.remaining_from(ATTESTING),
        "legacy_usd_per_mtok": legacy.usd_per_mtok,
        "phased_usd_per_mtok": phased.usd_per_mtok,
        "tax_usd_per_mtok": phased.usd_per_mtok - legacy.usd_per_mtok,
        "legacy_p99_ttft_s": legacy.ttft_percentile(99.0),
        "phased_p99_ttft_s": phased.ttft_percentile(99.0),
        "tax_p99_ttft_s": (phased.ttft_percentile(99.0)
                           - legacy.ttft_percentile(99.0)),
        "legacy_slo_attainment": legacy.slo_attainment(slo_ttft_s),
        "phased_slo_attainment": phased.slo_attainment(slo_ttft_s),
    }


def _served_model(kind: str):
    """Model/dtype a tax fleet serves (the paper's serving default)."""
    from ..llm.config import LLAMA2_7B
    from ..llm.datatypes import BFLOAT16
    del kind  # every headline fleet serves the same model today
    return LLAMA2_7B, BFLOAT16


def attest_tax_sweep(**grid: object) -> list[dict]:
    """The attestation-tax table: every (kind, scenario) cell.

    The rows of :func:`repro.state.points.attest_grid` run inline;
    keyword arguments are that grid's.  Deterministic and seeded end to
    end; the ``golden.attest_tax`` audit check snapshots this series.
    """
    from ..state.points import attest_grid
    from ..state.runner import SweepRunner

    rows = SweepRunner.create(None, attest_grid(**grid)).run()
    return [rows[index] for index in sorted(rows)]
