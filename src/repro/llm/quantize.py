"""Post-training int8 quantization (functional).

The paper's int8 results come from weight quantization tuned for AMX.
This module implements symmetric per-row absmax quantization — the scheme
IPEX's weight-only quantization uses — so the reference transformer can
actually run int8 forward passes and the tests can bound the numerical
error the scheme introduces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizedTensor:
    """A per-row symmetrically quantized matrix.

    Attributes:
        values: int8 payload with the original shape.
        scales: Per-row float32 scales such that
            ``dequantize() == values * scales[:, None]``.
    """

    values: np.ndarray
    scales: np.ndarray

    @property
    def nbytes(self) -> int:
        """Storage bytes of payload plus scales."""
        return self.values.nbytes + self.scales.nbytes

    def dequantize(self) -> np.ndarray:
        """Reconstruct the float32 approximation of the original matrix."""
        return self.values.astype(np.float32) * self.scales[:, None]


def quantize_per_row(weight: np.ndarray) -> QuantizedTensor:
    """Symmetric per-output-row absmax quantization to int8.

    Args:
        weight: A 2-D float matrix (rows are output features).

    Raises:
        ValueError: If the input is not 2-D or not finite.
    """
    if weight.ndim != 2:
        raise ValueError(f"expected a 2-D weight, got shape {weight.shape}")
    if not np.all(np.isfinite(weight)):
        raise ValueError("weight contains non-finite values")
    # The scale is chosen in float32: a row whose scale underflows to 0
    # there quantizes like an all-zero row.
    scales = (np.abs(weight).max(axis=1) / 127.0).astype(np.float32)
    scales[scales == 0] = 1.0
    values = np.clip(np.rint(weight / scales[:, None]), -127, 127).astype(np.int8)
    return QuantizedTensor(values=values, scales=scales)


def quantization_error(weight: np.ndarray) -> float:
    """Max absolute error introduced by :func:`quantize_per_row`.

    Bounded by ``absmax / 254`` per row (half a quantization step).
    """
    quantized = quantize_per_row(np.asarray(weight, dtype=np.float32))
    return float(np.abs(quantized.dequantize() - weight).max())


def int8_matmul(activations: np.ndarray, quantized: QuantizedTensor) -> np.ndarray:
    """Weight-only-int8 matmul: dequantize-on-the-fly GEMM.

    Mirrors IPEX weight-only quantization: activations stay floating
    point, weights are stored int8 and scaled per row.  Computed as
    ``(x @ W_q.T) * scales`` to keep the integer payload on the fast path.
    """
    raw = activations.astype(np.float32) @ quantized.values.astype(np.float32).T
    return raw * quantized.scales[None, :]


def to_bfloat16(array: np.ndarray) -> np.ndarray:
    """Round-to-nearest-even bfloat16 emulation, returned as float32.

    numpy has no native bfloat16; truncating the low 16 mantissa bits with
    rounding reproduces its precision so tests can bound bf16 error.
    """
    as_f32 = np.asarray(array, dtype=np.float32)
    bits = as_f32.view(np.uint32)
    # Round to nearest even on the upper 16 bits.
    rounding = ((bits >> 16) & 1) + 0x7FFF
    rounded = (bits + rounding) & 0xFFFF0000
    return rounded.astype(np.uint32).view(np.float32)
