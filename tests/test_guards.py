"""The boundary guards, and a fuzz of every public config they protect."""

import argparse
import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Workload, guards, simulate_generation
from repro.core.experiment import cpu_deployment
from repro.engine.placement import CpuPlacement
from repro.faults import (
    DegradationPolicy,
    FaultEvent,
    RetryPolicy,
    mtbf_schedule,
    recurring,
)
from repro.fleet import (
    FleetSimulator,
    diurnal_table,
    fixed_fleet,
    mmpp_table,
    poisson_table,
    replica_spec,
)
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.replica import Replica
from repro.fleet.router import CostSloRouter
from repro.hardware.cpu import EMR2
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.serving.admission import TenancyConfig
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    ServeRequest,
    poisson_stream,
)
from repro.serving.stepcost import StepCostTable
from repro.state import attest_grid, capacity_grid, chaos_grid
from repro.tee.boot import BootProfile, BootSequence, constant_profile
from repro.tenancy import TenantSpec, partition_bill_cents, whale_mix

TDX = replica_spec("tdx", max_batch=8, kv_capacity_tokens=8192)


class TestFinite:
    @pytest.mark.parametrize("value", [0, 2.5, -3, np.float64(1e300),
                                       np.int64(7), Fraction(1, 3)])
    def test_accepts_finite_reals(self, value):
        assert guards.finite("x", value) is None

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True,
                                       False, "1", None, 1j])
    def test_refuses_the_rest(self, value):
        with pytest.raises(ValueError, match=rf"^x must be finite, got "
                                             rf"{value!r}$"):
            guards.finite("x", value)

    @pytest.mark.parametrize("bounds,good,bad", [
        ({"gt": 0}, 1e-300, 0), ({"ge": 0}, 0, -1e-300),
        ({"le": 1}, 1, 1.0000001), ({"gt": 0, "le": 1}, 1, 0),
        ({"ge": 2.5}, 2.5, 2.4)])
    def test_bounds(self, bounds, good, bad):
        guards.finite("x", good, **bounds)
        with pytest.raises(ValueError, match="x must be finite and"):
            guards.finite("x", bad, **bounds)

    def test_message_names_the_bounds(self):
        with pytest.raises(ValueError, match=r"^rate must be finite and "
                                             r"positive, got nan$"):
            guards.finite("rate", math.nan, gt=0)
        with pytest.raises(ValueError, match=r"^share must be finite and "
                                             r"positive and <= 1, got 2$"):
            guards.finite("share", 2, gt=0, le=1)


class TestCount:
    @pytest.mark.parametrize("value", [0, -4, 10 ** 30, np.int64(3)])
    def test_accepts_integers(self, value):
        assert guards.count("n", value) is None

    @pytest.mark.parametrize("value", [True, False, 8.0, 2.5, math.nan,
                                       math.inf, "8", np.float64(8.0)])
    def test_refuses_bools_floats_and_strings(self, value):
        with pytest.raises(ValueError, match=r"^n must be a finite integer"):
            guards.count("n", value)

    def test_bounds(self):
        guards.count("n", 1, ge=1, le=1)
        with pytest.raises(ValueError, match=r"^n must be a finite integer "
                                             r"and >= 1, got 0$"):
            guards.count("n", 0, ge=1)
        with pytest.raises(ValueError, match="<= 3"):
            guards.count("n", 4, le=3)


class TestWhole:
    @pytest.mark.parametrize("value", [16, 16.0, -2.0, np.int64(5),
                                       np.float64(4.0), True, 1e300])
    def test_accepts_whole_numbers(self, value):
        assert guards.whole("w", value) is None

    @pytest.mark.parametrize("value", [3.7, 0.5, math.nan, math.inf, "16",
                                       None])
    def test_refuses_fractions_and_non_finite(self, value):
        with pytest.raises(ValueError, match=r"^w must be a finite whole "
                                             r"number, got "):
            guards.whole("w", value)


class TestSecondsArg:
    @pytest.mark.parametrize("text, value", [("2", 2.0), ("0.5", 0.5),
                                             ("1e-3", 1e-3)])
    def test_parses_positive_seconds(self, text, value):
        assert guards.seconds_arg(text) == value

    @pytest.mark.parametrize("text", ["0", "-1", "nan", "inf", "-inf",
                                      "abc", ""])
    def test_refuses_the_rest(self, text):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="finite positive number of seconds"):
            guards.seconds_arg(text)


class TestNumberArgs:
    @pytest.mark.parametrize("parse, text, value", [
        (guards.number_arg(gt=0), "4", 4.0),
        (guards.number_arg(ge=0), "0", 0.0),
        (guards.number_arg(), "-2.5", -2.5),
        (guards.count_arg(ge=1), "3", 3),
        (guards.count_arg(ge=0), "0", 0),
    ])
    def test_parses_what_the_guard_accepts(self, parse, text, value):
        parsed = parse(text)
        assert parsed == value and type(parsed) is type(value)

    @pytest.mark.parametrize("parse, text, message", [
        (guards.number_arg(gt=0), "0", "'0' is not finite and positive"),
        (guards.number_arg(ge=0), "-1", "'-1' is not finite and >= 0"),
        (guards.number_arg(), "nan", "'nan' is not finite"),
        (guards.number_arg(), "inf", "'inf' is not finite"),
        (guards.number_arg(gt=0), "abc", "'abc' is not finite and positive"),
        (guards.count_arg(ge=1), "0", "'0' is not an integer and >= 1"),
        (guards.count_arg(ge=1), "2.5", "'2.5' is not an integer and >= 1"),
        (guards.count_arg(ge=0, le=9), "10",
         "'10' is not an integer and >= 0 and <= 9"),
    ])
    def test_refuses_the_rest(self, parse, text, message):
        with pytest.raises(argparse.ArgumentTypeError) as error:
            parse(text)
        assert str(error.value) == message


def test_guards_never_convert():
    # A coerced value would change config fingerprints and snapshots.
    assert type(RetryPolicy(max_attempts=np.int64(4)).max_attempts) is np.int64
    assert type(ServeRequest(0, 0, 16.0, 8).prompt_tokens) is float
    assert type(ServeRequest(0, 0, 16.0, 8).arrival_s) is int
    assert BootProfile("tdx", provision_s=3).fingerprint()["provision_s"] == 3


# -- the boundary fuzz ------------------------------------------------------

#: What a caller might type where a number belongs.
PROBES = (math.nan, math.inf, -math.inf, -3, 0, 2.5, True)


def fields(build, *names, **base):
    """One boundary case per numeric field of a keyword constructor."""
    label = getattr(build, "__name__", "build")
    return [(f"{label}.{name}",
             lambda value, name=name: build(**{**base, name: value}),
             lambda built, name=name: getattr(built, name))
            for name in names]


def spec_with(**changes):
    return dataclasses.replace(TDX, **changes)


def grid_fields(build, *names, **base):
    """One boundary case per numeric argument of a sweep grid builder,
    read back from its first point's params."""
    return [(f"{build.__name__}.{name}",
             lambda value, name=name: build(**{**base, name: value}),
             lambda built, name=name: built.points[0].params[name])
            for name in names]


@functools.cache
def small_report():
    return fixed_fleet(TDX, 1).run(poisson_table(3, 1.0))


#: (label, build(value), read(built) or None): read returns the stored
#: field; None marks a function whose result has no such field.
BOUNDARY = [
    *fields(RetryPolicy, "timeout_s", "max_attempts", "backoff_base_s",
            "backoff_multiplier", "jitter_frac"),
    *fields(DegradationPolicy, "max_hold_s", "spill_boot_s", "max_spill"),
    *fields(FaultEvent, "time_s", "replica_id", "duration_s", "factor",
            "restart_after_s", "comm_share", time_s=1.0, kind="slowdown",
            replica_id=0, duration_s=5.0, factor=2.0),
    ("mtbf_schedule.replica_id",
     lambda value: mtbf_schedule([value], 50.0, 200.0), None),
    ("mtbf_schedule.mtbf_s",
     lambda value: mtbf_schedule([0], value, 200.0), None),
    ("mtbf_schedule.horizon_s",
     lambda value: mtbf_schedule([0], 50.0, value), None),
    ("mtbf_schedule.mttr_s",
     lambda value: mtbf_schedule([0], 50.0, 200.0, mttr_s=value), None),
    ("recurring.period_s",
     lambda value: recurring("crash", 0, 1.0, value, 2), None),
    ("recurring.count", lambda value: recurring("crash", 0, 1.0, 5.0, value),
     None),
    *fields(BootProfile, "provision_s", "quote_s", "kms_round_trip_s",
            "kms_round_trips", "decrypt_gbps", "load_gbps", kind="tdx"),
    ("BootSequence.durations",
     lambda value: BootSequence("tdx", (value, 0.0, 0.0, 0.0, 0.0)),
     lambda built: built.durations[0]),
    ("BootProfile.phase_durations",
     lambda value: BootProfile("tdx", load_gbps=5.0).phase_durations(value),
     None),
    ("constant_profile.total_s",
     lambda value: constant_profile("tdx", value),
     lambda built: built.provision_s),
    *fields(AutoscalerConfig, "min_replicas", "max_replicas",
            "scale_up_load", "scale_down_load", "cooldown_s",
            "boot_latency_s"),
    *fields(spec_with, "price_hr"),
    *fields(Replica, "replica_id", "provisioned_s", "boot_latency_s",
            replica_id=0, spec=TDX, provisioned_s=0.0, boot_latency_s=0.0),
    *fields(CostSloRouter, "slo_ttft_s", "risk_factor", slo_ttft_s=2.0),
    ("FleetReport.slo_attainment",
     lambda value: small_report().slo_attainment(value), None),
    *grid_fields(capacity_grid, "slo_ttft_s", "percentile", "num_requests",
                 "rate_rps", "mean_prompt", "mean_output", kinds=("tdx",),
                 max_replicas=1, arrivals="poisson"),
    ("capacity_grid.max_replicas",
     lambda value: capacity_grid(kinds=("tdx",), max_replicas=value), None),
    *grid_fields(chaos_grid, "num_requests", "rate_rps", "mean_prompt",
                 "mean_output", "replicas", "slo_ttft_s", "timeout_s",
                 "horizon_s", kinds=("tdx",)),
    ("chaos_grid.mtbf_grid_s",
     lambda value: chaos_grid(kinds=("tdx",), mtbf_grid_s=(value,)),
     lambda built: built.points[0].params["mtbf_s"]),
    *grid_fields(attest_grid, "slo_ttft_s", kinds=("tdx",)),
    *fields(FleetSimulator, "tick_s", specs=[TDX]),
    ("poisson_table.count", lambda value: poisson_table(value, 1.0), None),
    ("poisson_table.rate_per_s", lambda value: poisson_table(3, value), None),
    ("poisson_table.mean_prompt",
     lambda value: poisson_table(3, 1.0, mean_prompt=value), None),
    ("poisson_table.mean_output",
     lambda value: poisson_table(3, 1.0, mean_output=value), None),
    ("mmpp_table.count", lambda value: mmpp_table(value, 1.0, 2.0), None),
    ("mmpp_table.burst_rate_per_s",
     lambda value: mmpp_table(3, 1.0, value), None),
    ("mmpp_table.mean_calm_s",
     lambda value: mmpp_table(3, 1.0, 2.0, mean_calm_s=value), None),
    ("diurnal_table.period_s",
     lambda value: diurnal_table(3, 1.0, period_s=value), None),
    ("diurnal_table.peak_to_trough",
     lambda value: diurnal_table(3, 1.0, peak_to_trough=value), None),
    ("poisson_stream.count", lambda value: poisson_stream(value, 1.0), None),
    ("poisson_stream.rate_per_s", lambda value: poisson_stream(3, value),
     None),
    *fields(TenantSpec, "tenant_id", "requests", "rate_per_s", "mean_prompt",
            "mean_output", "weight", "priority", "slo_ttft_s",
            "prefix_tokens", tenant_id=0, name="t", requests=2,
            rate_per_s=1.0),
    ("whale_mix.total_requests",
     lambda value: whale_mix(total_requests=value), None),
    ("whale_mix.rate_per_s", lambda value: whale_mix(rate_per_s=value), None),
    ("TenancyConfig.weights", lambda value: TenancyConfig(weights=((0, value),)),
     lambda built: built.weights[0][1]),
    ("TenancyConfig.weights tenant",
     lambda value: TenancyConfig(weights=((value, 1.0),)),
     lambda built: built.weights[0][0]),
    ("TenancyConfig.prefix_tokens",
     lambda value: TenancyConfig(prefix_tokens=((0, value),)),
     lambda built: built.prefix_tokens[0][1]),
    ("TenancyConfig.partition_shares",
     lambda value: TenancyConfig(kv_isolation="partition",
                                 partition_shares=((0, value),)),
     lambda built: built.partition_shares[0][1]),
    ("partition_bill_cents.total_usd",
     lambda value: partition_bill_cents(value, {0: 1}), None),
    ("partition_bill_cents.tokens",
     lambda value: partition_bill_cents(1.0, {0: value}), None),
    *fields(Workload, "batch_size", "input_tokens", "output_tokens",
            "beam_size", model=LLAMA2_7B, dtype=BFLOAT16),
    *fields(CpuPlacement, "sockets_used", "cores_per_socket_used",
            "snc_clusters", cpu=EMR2),
    *fields(ServeRequest, "request_id", "arrival_s", "prompt_tokens",
            "output_tokens", "priority", "tenant_id", request_id=0,
            arrival_s=0.0, prompt_tokens=16, output_tokens=8),
    *fields(ContinuousBatchingScheduler, "block_size", "max_batch",
            "admission_lookahead",
            deployment=TDX.deployment, model=LLAMA2_7B, dtype=BFLOAT16),
    ("ContinuousBatchingScheduler.kv_capacity_tokens",
     lambda value: ContinuousBatchingScheduler(
         TDX.deployment, LLAMA2_7B, BFLOAT16, kv_capacity_tokens=value),
     None),
    ("simulate_generation.context_stride",
     lambda value: simulate_generation(
         Workload(LLAMA2_7B, BFLOAT16, output_tokens=4),
         cpu_deployment("tdx", sockets_used=1), context_stride=value),
     None),
    ("StepCostTable.decode_step_s.batch",
     lambda value: StepCostTable.shared(
         TDX.deployment, LLAMA2_7B, BFLOAT16).decode_step_s(value, 1024),
     None),
]


@pytest.mark.parametrize("slo", [math.nan, math.inf, True, 0, -1.0])
def test_slo_attainment_refuses_a_bad_slo(slo):
    """Once, NaN read as 0% attainment, inf as 100% and True as a 1 s
    SLO."""
    with pytest.raises(ValueError, match="slo_ttft_s must be finite"):
        small_report().slo_attainment(slo)
    with pytest.raises(ValueError, match="slo_ttft_s must be finite"):
        small_report().slo_curve([1.0, slo])


@settings(max_examples=2 * len(BOUNDARY) * len(PROBES), deadline=None,
          derandomize=True)
@given(case=st.sampled_from(BOUNDARY), value=st.sampled_from(PROBES))
def test_boundary_refuses_or_keeps_the_value(case, value):
    """Each public boundary either raises ValueError or stores the value
    it was given, unchanged: never another exception, never a NaN or
    an inf kept, and never a coerced number."""
    _, build, read = case
    try:
        built = build(value)
    except ValueError:
        return
    if read is not None:
        kept = read(built)
        assert type(kept) is type(value) and kept == value
