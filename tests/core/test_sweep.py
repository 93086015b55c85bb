"""Sweep runner and series extraction."""

import math

import pytest

from repro.core.experiment import cpu_deployment
from repro.core.sweep import (
    is_monotonic,
    metric_series,
    overhead_series,
    sweep_deployments,
    sweep_workload,
)
from repro.engine.placement import Workload
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.state.errors import StateValueError


@pytest.fixture(scope="module")
def deployments():
    return {
        "baremetal": cpu_deployment("baremetal", sockets_used=1),
        "tdx": cpu_deployment("tdx", sockets_used=1),
    }


@pytest.fixture(scope="module")
def batch_sweep(deployments):
    base = Workload(LLAMA2_7B, BFLOAT16, batch_size=1, input_tokens=128,
                    output_tokens=16)
    return sweep_workload("t", base, deployments, "batch_size", [1, 8, 64])


class TestSweepWorkload:
    def test_one_outcome_per_value(self, batch_sweep):
        assert set(batch_sweep) == {1, 8, 64}

    def test_workloads_differ(self, batch_sweep):
        assert batch_sweep[8].workload.batch_size == 8

    def test_empty_values_rejected(self, deployments):
        with pytest.raises(ValueError):
            sweep_workload("t", Workload(LLAMA2_7B, BFLOAT16), deployments,
                           "batch_size", [])


class TestSweepDeployments:
    def test_core_sweep(self):
        workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=4,
                            input_tokens=128, output_tokens=8)

        def make(cores):
            return {
                "baremetal": cpu_deployment("baremetal", sockets_used=1,
                                            cores_per_socket_used=cores),
                "tdx": cpu_deployment("tdx", sockets_used=1,
                                      cores_per_socket_used=cores),
            }

        outcomes = sweep_deployments("cores", workload, make, [8, 32])
        tput = metric_series(outcomes, "baremetal")
        assert tput[32] > tput[8]


#: Grid values that are not an integer >= 1.
BAD_GRID_VALUES = [2.5, True, math.nan, math.inf, 0, -1, "8", []]


class TestGridValidation:
    """Both sweeps refuse a bad grid value by its slot, before any
    experiment is built."""

    @pytest.mark.parametrize("value", BAD_GRID_VALUES, ids=repr)
    def test_sweep_workload_refuses(self, deployments, value):
        base = Workload(LLAMA2_7B, BFLOAT16)
        with pytest.raises(StateValueError,
                           match=r"^sweep grid 'batch_size'\[1\] must be a "
                                 r"finite integer and >= 1, got "):
            sweep_workload("t", base, deployments, "batch_size", [1, value])

    @pytest.mark.parametrize("value", BAD_GRID_VALUES, ids=repr)
    def test_sweep_deployments_refuses(self, value):
        def make(cores):
            raise AssertionError(f"built a deployment for {cores!r}")

        with pytest.raises(StateValueError,
                           match=r"^sweep grid 'cores'\[0\] must be a "
                                 r"finite integer and >= 1, got "):
            sweep_deployments("cores", Workload(LLAMA2_7B, BFLOAT16), make,
                              [value])

    def test_empty_grid_refused(self):
        with pytest.raises(StateValueError, match="must be non-empty"):
            sweep_deployments("cores", Workload(LLAMA2_7B, BFLOAT16),
                              dict, [])


class TestSeries:
    def test_overhead_series(self, batch_sweep):
        series = overhead_series(batch_sweep, "tdx", metric="throughput")
        assert set(series) == {1, 8, 64}
        assert all(value > 0 for value in series.values())

    def test_overhead_series_bad_metric(self, batch_sweep):
        with pytest.raises(ValueError):
            overhead_series(batch_sweep, "tdx", metric="energy")

    def test_metric_series(self, batch_sweep):
        series = metric_series(batch_sweep, "baremetal",
                               "decode_throughput_tok_s")
        assert series[64] > series[1]

    def test_overhead_decreases_with_batch(self, batch_sweep):
        """Insight 9 at sweep level."""
        series = overhead_series(batch_sweep, "tdx")
        assert series[64] < series[1]


class TestMonotonic:
    def test_decreasing(self):
        assert is_monotonic({1: 3.0, 2: 2.0, 3: 1.0}, decreasing=True)
        assert not is_monotonic({1: 1.0, 2: 2.0}, decreasing=True)

    def test_increasing(self):
        assert is_monotonic({1: 1.0, 2: 2.0}, decreasing=False)

    def test_tolerance(self):
        wiggly = {1: 3.0, 2: 3.05, 3: 1.0}
        assert not is_monotonic(wiggly, decreasing=True)
        assert is_monotonic(wiggly, decreasing=True, tolerance=0.1)

    def test_unordered_keys_sorted(self):
        assert is_monotonic({3: 1.0, 1: 3.0, 2: 2.0}, decreasing=True)
