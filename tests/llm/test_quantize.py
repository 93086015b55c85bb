"""int8 quantization: error bounds and matmul agreement (hypothesis)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.llm.quantize import (
    int8_matmul,
    quantization_error,
    quantize_per_row,
    to_bfloat16,
)

finite_matrix = hnp.arrays(
    dtype=np.float64, shape=st.tuples(st.integers(1, 8), st.integers(1, 16)),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))


class TestQuantizePerRow:
    def test_exact_for_powers(self):
        weight = np.array([[127.0, -127.0, 0.0]])
        quantized = quantize_per_row(weight)
        np.testing.assert_allclose(quantized.dequantize(), weight)

    def test_values_are_int8_bounded(self):
        rng = np.random.default_rng(0)
        quantized = quantize_per_row(rng.normal(size=(16, 32)))
        assert quantized.values.dtype == np.int8
        assert quantized.values.min() >= -127
        assert quantized.values.max() <= 127

    @settings(max_examples=60, deadline=None)
    @given(finite_matrix)
    def test_error_bounded_by_half_step(self, weight):
        quantized = quantize_per_row(weight.astype(np.float32))
        absmax = np.abs(weight).max(axis=1, keepdims=True)
        step = np.where(absmax > 0, absmax / 127.0, 1.0)
        error = np.abs(quantized.dequantize() - weight)
        assert np.all(error <= step / 2 + 1e-5)

    def test_zero_row_handled(self):
        quantized = quantize_per_row(np.zeros((2, 4)))
        np.testing.assert_array_equal(quantized.dequantize(), np.zeros((2, 4)))

    @pytest.mark.parametrize("row", [[1e-44, -1e-44], [1e-44, 0.0]])
    def test_row_whose_scale_underflows_is_a_zero_row(self, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            quantized = quantize_per_row(np.array([row]))
        assert quantized.scales.tolist() == [1.0]
        assert quantized.values.tolist() == [[0, 0]]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            quantize_per_row(np.zeros(4))

    def test_rejects_nan(self):
        bad = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match="finite"):
            quantize_per_row(bad)

    def test_nbytes_accounts_payload_and_scales(self):
        quantized = quantize_per_row(np.ones((4, 8)))
        assert quantized.nbytes == 4 * 8 + 4 * 4


class TestInt8Matmul:
    def test_close_to_float_matmul(self):
        rng = np.random.default_rng(1)
        weight = rng.normal(size=(8, 16))
        activations = rng.normal(size=(3, 16)).astype(np.float32)
        exact = activations @ weight.T
        approx = int8_matmul(activations, quantize_per_row(weight))
        assert np.abs(exact - approx).max() < 0.05 * np.abs(exact).max() + 0.05

    def test_quantization_error_helper(self):
        rng = np.random.default_rng(2)
        weight = rng.normal(size=(4, 4))
        assert quantization_error(weight) <= np.abs(weight).max() / 127.0


class TestBfloat16:
    def test_exact_for_representable(self):
        values = np.array([1.0, 2.0, -0.5, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(to_bfloat16(values), values)

    def test_relative_error_within_bf16_epsilon(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=1000).astype(np.float32)
        rounded = to_bfloat16(values)
        rel = np.abs(rounded - values) / np.maximum(np.abs(values), 1e-30)
        assert rel.max() <= 2 ** -8  # bf16 has 8 total mantissa bits

    def test_round_to_nearest_even(self):
        # 1 + 2^-9 is exactly halfway between bf16 neighbours 1.0 and
        # 1 + 2^-8; ties-to-even rounds down to 1.0.
        value = np.float32(1.0 + 2.0 ** -9)
        assert to_bfloat16(np.array([value]))[0] == np.float32(1.0)
