"""Retry/backoff policies, degradation policies, attestation gate."""

import math

import pytest

from repro.faults import (
    DEGRADATION_MODES,
    SHED_REASONS,
    DegradationPolicy,
    FleetAttestation,
    RetryPolicy,
    mtbf_schedule,
    needs_attestation,
)


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_multiplier=2.0,
                             jitter_frac=0.0)
        assert policy.backoff_s(0, 1) == pytest.approx(1.0)
        assert policy.backoff_s(0, 2) == pytest.approx(2.0)
        assert policy.backoff_s(0, 3) == pytest.approx(4.0)

    def test_jitter_differs_across_requests_same_seed(self):
        policy = RetryPolicy(jitter_frac=0.5, seed=3)
        delays = {policy.backoff_s(rid, 1) for rid in range(8)}
        assert len(delays) > 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_frac=-0.1)


class TestDegradationPolicy:
    def test_modes_are_closed_set(self):
        assert set(DEGRADATION_MODES) == {"shed", "spill"}
        with pytest.raises(ValueError):
            DegradationPolicy(mode="panic")

    def test_shed_reasons_are_closed_set(self):
        assert set(SHED_REASONS) == {"retries-exhausted", "degraded",
                                     "unroutable"}

    def test_max_hold_must_be_positive(self):
        with pytest.raises(ValueError):
            DegradationPolicy(max_hold_s=0.0)


class TestFleetAttestation:
    def test_tee_kinds(self):
        assert needs_attestation("tdx")
        assert needs_attestation("cgpu")
        assert not needs_attestation("baremetal")

    def test_enroll_readmit_cycle(self):
        gate = FleetAttestation()
        gate.enroll(0)
        assert gate.readmit(0), "freshly enrolled replica must verify"
        assert gate.verifications == 1
        assert gate.failures == 0

    def test_revoke_then_readmit_reprovisions(self):
        gate = FleetAttestation()
        gate.enroll(0)
        assert gate.revoke(0), "revoked platform must fail verification"
        assert gate.failures == 1
        assert gate.readmit(0), "re-provisioned platform verifies again"
        assert gate.verifications >= 2


#: Every fault/resilience config site whose comparison guards let NaN
#: or inf through (an inf horizon used to loop forever).
NON_FINITE_FAULT_CONFIGS = [
    ("mtbf horizon_s=inf", lambda: mtbf_schedule([0], 10.0, math.inf),
     "horizon_s"),
    ("mtbf horizon_s=nan", lambda: mtbf_schedule([0], 10.0, math.nan),
     "horizon_s"),
    ("mtbf mtbf_s=inf", lambda: mtbf_schedule([0], math.inf, 100.0),
     "mtbf_s"),
    ("mtbf mtbf_s=nan", lambda: mtbf_schedule([0], math.nan, 100.0),
     "mtbf_s"),
    ("mtbf mttr_s=inf",
     lambda: mtbf_schedule([0], 10.0, 100.0, mttr_s=math.inf), "mttr_s"),
    ("mtbf mttr_s=nan",
     lambda: mtbf_schedule([0], 10.0, 100.0, mttr_s=math.nan), "mttr_s"),
    ("retry backoff_base_s=nan",
     lambda: RetryPolicy(10.0, 4, backoff_base_s=math.nan),
     "backoff_base_s"),
    ("retry backoff_base_s=inf",
     lambda: RetryPolicy(10.0, 4, backoff_base_s=math.inf),
     "backoff_base_s"),
    ("retry backoff_multiplier=inf",
     lambda: RetryPolicy(10.0, 4, backoff_multiplier=math.inf),
     "backoff_multiplier"),
    ("retry backoff_multiplier=nan",
     lambda: RetryPolicy(10.0, 4, backoff_multiplier=math.nan),
     "backoff_multiplier"),
    ("degradation spill_boot_s=nan",
     lambda: DegradationPolicy(mode="spill", spill_boot_s=math.nan),
     "spill_boot_s"),
    ("degradation spill_boot_s=inf",
     lambda: DegradationPolicy(mode="spill", spill_boot_s=math.inf),
     "spill_boot_s"),
]


@pytest.mark.parametrize("build,field",
                         [case[1:] for case in NON_FINITE_FAULT_CONFIGS],
                         ids=[case[0] for case in NON_FINITE_FAULT_CONFIGS])
def test_non_finite_fault_config_rejected(build, field):
    with pytest.raises(ValueError, match=field):
        build()
