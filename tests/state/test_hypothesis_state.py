"""Property-based checkpoint/restore: round-trips hold everywhere.

The ``state.*`` audit checks pin fixed configurations; these properties
generate the configuration space — arbitrary payload data must survive
(or be refused by) validation, and a fleet frozen after *any* number of
ticks under *any* generated fault schedule must restore into a fresh
simulator that finishes bit-identically.  The default selection stays
small for the tier-1 budget; ``-m slow`` runs a deeper sweep.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import RetryPolicy, mtbf_schedule
from repro.fleet import fixed_fleet, poisson_table, replica_spec
from repro.state import StateError, validate_payload
from repro.state.checkpoint import restore, snapshot
from repro.state.runner import GridPoint, SweepSpec

SIM_SETTINGS = dict(deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

TDX = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)


def json_payloads():
    """Strategy: arbitrary JSON-shaped data, finite and non-finite."""
    leaves = st.one_of(
        st.none(), st.booleans(), st.integers(-10**6, 10**6),
        st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
        max_leaves=12)


def _has_non_finite(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_has_non_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_non_finite(v) for v in value)
    return False


@settings(max_examples=50, **SIM_SETTINGS)
@given(payload=json_payloads())
def test_validate_accepts_exactly_strict_json(payload):
    """validate_payload passes iff strict JSON serialization would."""
    if _has_non_finite(payload):
        with pytest.raises(StateError):
            validate_payload(payload)
    else:
        validate_payload(payload)
        assert json.loads(json.dumps(payload, allow_nan=False)) == payload


@settings(max_examples=25, **SIM_SETTINGS)
@given(params=st.dictionaries(
    st.text(min_size=1, max_size=6),
    st.one_of(st.integers(-100, 100), st.floats(-5, 5), st.text(max_size=6),
              st.none()),
    max_size=4),
    group=st.text(max_size=4), prune=st.booleans())
def test_sweep_spec_roundtrips_exactly(params, group, prune):
    """SweepSpec -> JSON -> SweepSpec is the identity."""
    spec = SweepSpec(
        points=(GridPoint(0, "only", "test_runner", params, group=group),),
        prune_field="flag" if prune else None)
    assert SweepSpec.from_state(json.loads(json.dumps(spec.to_state()))) \
        == spec


def _roundtrip_fleet(mtbf_s, ticks, seed, n_requests):
    def factory():
        faults = (mtbf_schedule([0, 1], mtbf_s=mtbf_s, horizon_s=15.0,
                                seed=seed) if mtbf_s is not None else None)
        return fixed_fleet(TDX, 2, faults=faults,
                           retry_policy=RetryPolicy(seed=seed))

    stream = poisson_table(n_requests, rate_per_s=4.0, mean_prompt=64,
                           mean_output=16, seed=seed)
    baseline = factory().run(stream)
    running = factory()
    running.begin_run(stream)
    for _ in range(ticks):
        if not running.run_active:
            break
        running.run_tick()
    payload = json.loads(json.dumps(snapshot(running)))
    fresh = factory()
    restore(fresh, payload)
    assert snapshot(fresh) == payload, "restore -> snapshot not idempotent"
    while fresh.run_active:
        fresh.run_tick()
    assert fresh.finish_run().to_dict() == baseline.to_dict()


@settings(max_examples=4, **SIM_SETTINGS)
@given(mtbf_s=st.one_of(st.none(), st.floats(4.0, 12.0)),
       ticks=st.integers(0, 12), seed=st.integers(0, 1000))
def test_snapshot_any_tick_restores_bit_identically(mtbf_s, ticks, seed):
    """Freezing after any tick count resumes to the baseline report."""
    _roundtrip_fleet(mtbf_s, ticks, seed, n_requests=8)


@pytest.mark.slow
@settings(max_examples=40, **SIM_SETTINGS)
@given(mtbf_s=st.one_of(st.none(), st.floats(2.0, 14.0)),
       ticks=st.integers(0, 40), seed=st.integers(0, 100_000))
def test_snapshot_any_tick_restores_bit_identically_deep(mtbf_s, ticks,
                                                         seed):
    """Deep variant: more ticks, wider seeds, larger streams."""
    _roundtrip_fleet(mtbf_s, ticks, seed, n_requests=14)
