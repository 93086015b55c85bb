"""Sweep edge cases and cache accounting.

Covers the series extractors on unsorted/missing inputs, monotonicity
tolerance boundaries, and the simulator cache counters a sweep is
expected to exercise.
"""

import pytest

from repro.core.experiment import cpu_deployment
from repro.core.profiling import cache_stats
from repro.core.sweep import (
    is_monotonic,
    metric_series,
    overhead_series,
    sweep_workload,
)
from repro.engine.placement import Workload
from repro.llm.config import tiny_llama
from repro.llm.datatypes import BFLOAT16

TINY = tiny_llama()


@pytest.fixture(scope="module")
def deployments():
    return {
        "baremetal": cpu_deployment("baremetal", sockets_used=1),
        "tdx": cpu_deployment("tdx", sockets_used=1),
    }


@pytest.fixture(scope="module")
def tiny_sweep(deployments):
    base = Workload(TINY, BFLOAT16, batch_size=1, input_tokens=64,
                    output_tokens=8)
    return sweep_workload("edge", base, deployments, "batch_size", [1, 2, 4])


class TestSeriesExtraction:
    def test_overhead_series_missing_label(self, tiny_sweep):
        with pytest.raises(KeyError, match="gpu.*known labels"):
            overhead_series(tiny_sweep, "gpu")

    def test_metric_series_missing_label(self, tiny_sweep):
        with pytest.raises(KeyError, match="known labels"):
            metric_series(tiny_sweep, "sgx")

    def test_overhead_series_invalid_metric(self, tiny_sweep):
        with pytest.raises(ValueError, match="throughput.*latency"):
            overhead_series(tiny_sweep, "tdx", metric="cost")

    def test_metric_series_values(self, tiny_sweep):
        series = metric_series(tiny_sweep, "tdx")
        assert set(series) == {1, 2, 4}
        assert all(value > 0 for value in series.values())


class TestIsMonotonic:
    def test_unsorted_keys_are_sorted_first(self):
        # Insertion order descending; values increase with the key.
        series = {8: 3.0, 2: 1.0, 4: 2.0}
        assert is_monotonic(series, decreasing=False)
        assert not is_monotonic(series, decreasing=True)

    def test_tolerance_boundary_inclusive(self):
        # One counter-move of exactly the tolerance is allowed...
        series = {1: 1.0, 2: 1.1, 3: 1.05}
        assert is_monotonic(series, decreasing=False, tolerance=0.05)
        # ... but anything beyond it is not.
        assert not is_monotonic(series, decreasing=False, tolerance=0.04)

    def test_zero_tolerance_flat_series(self):
        series = {1: 2.0, 2: 2.0, 3: 2.0}
        assert is_monotonic(series, decreasing=True)
        assert is_monotonic(series, decreasing=False)

    def test_single_point_is_monotonic(self):
        assert is_monotonic({5: 1.0})


class TestSweepCacheAccounting:
    def test_sweep_hits_simulator_caches(self, deployments):
        base = Workload(TINY, BFLOAT16, batch_size=2, input_tokens=96,
                        output_tokens=8)
        sweep_workload("warm", base, deployments, "input_tokens",
                       [96, 128, 160], seed=0)
        # Run the identical sweep again: every prefill step is memoized.
        sweep_workload("warm", base, deployments, "input_tokens",
                       [96, 128, 160], seed=0)
        stats = cache_stats()
        assert stats["prefill_step_cost"].hits > 0
        assert stats["prefill_step_cost"].misses > 0
