"""Operator-level FLOP and byte accounting.

Every experiment in the paper is explained by how much compute and data
movement each transformer operator generates and where that data lives
(streamed weights, activations, growing KV cache).  The :class:`Operator`
record carries exactly those quantities; the execution engine turns them
into time via a roofline model with TEE-specific derates.

Byte traffic is split into three streams because they behave differently
under the memory-subsystem simulation:

* ``weight_bytes`` — model weights streamed once per forward step and
  shared by the whole batch (this sharing is what makes large batches
  compute-bound, Insight 9);
* ``activation_bytes`` — per-token activations, mostly cache-resident;
* ``kv_read_bytes`` / ``kv_write_bytes`` — the KV cache, which grows with
  context and eventually spills the LLC (the Fig. 10 inflection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class OpCategory(str, Enum):
    """Coarse operator class; drives engine selection and cache modelling."""

    GEMM = "gemm"
    ATTENTION = "attention"
    NORM = "norm"
    ELEMENTWISE = "elementwise"
    EMBEDDING = "embedding"
    COMMUNICATION = "communication"


class Phase(str, Enum):
    """Inference phase the operator belongs to."""

    PREFILL = "prefill"
    DECODE = "decode"


@dataclass(frozen=True)
class Operator:
    """One logical operator instance in a forward step.

    Attributes:
        name: Stable operator name (e.g. ``"self_attention"``); the
            trace-based Fig. 7 reproduction groups by this.
        category: Coarse class, see :class:`OpCategory`.
        phase: Prefill or decode.
        layer: Decoder block index, or ``None`` for embedding / head ops.
        flops: Floating-point (or int8 MAC*2) operations.
        weight_bytes: Streamed weight traffic, amortized over the batch.
        activation_bytes: Activation read+write traffic.
        kv_read_bytes: KV-cache bytes read.
        kv_write_bytes: KV-cache bytes appended/written.
    """

    name: str
    category: OpCategory
    phase: Phase
    layer: int | None
    flops: float
    weight_bytes: float = 0.0
    activation_bytes: float = 0.0
    kv_read_bytes: float = 0.0
    kv_write_bytes: float = 0.0

    def __post_init__(self) -> None:
        for field in ("flops", "weight_bytes", "activation_bytes",
                      "kv_read_bytes", "kv_write_bytes"):
            value = getattr(self, field)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{self.name}: {field} must be finite and >= 0, got {value}")

    @property
    def bytes_total(self) -> float:
        """All byte traffic of this operator."""
        return (self.weight_bytes + self.activation_bytes
                + self.kv_read_bytes + self.kv_write_bytes)

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved; infinity for zero-byte operators."""
        total = self.bytes_total
        if total == 0.0:
            return math.inf
        return self.flops / total

    def scaled(self, factor: float) -> "Operator":
        """A copy with all costs multiplied by ``factor`` (>= 0)."""
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        return Operator(
            name=self.name,
            category=self.category,
            phase=self.phase,
            layer=self.layer,
            flops=self.flops * factor,
            weight_bytes=self.weight_bytes * factor,
            activation_bytes=self.activation_bytes * factor,
            kv_read_bytes=self.kv_read_bytes * factor,
            kv_write_bytes=self.kv_write_bytes * factor,
        )


#: The cost fields of an :class:`Operator`, in :class:`OpColumns` plane
#: order.
OP_FIELDS = ("flops", "weight_bytes", "activation_bytes",
             "kv_read_bytes", "kv_write_bytes")


@dataclass(frozen=True)
class OpColumns:
    """The operators of one step graph at many step shapes at once.

    Row ``k`` of every field is operator ``k`` of the graph; column
    ``j`` is shape ``j`` (for :func:`~repro.llm.graph.prefill_columns`,
    a prompt length).  The cost models read it the way they read a list
    of :class:`Operator` (see ``step_cost_columns``).

    Attributes:
        names: Operator names, in graph order.
        categories: Operator categories, in graph order.
        layers: Decoder block index per operator (``None`` outside).
        fields: float64 array of shape ``(len(OP_FIELDS), operators,
            shapes)``, one plane per :data:`OP_FIELDS` entry.
    """

    names: tuple[str, ...]
    categories: tuple[OpCategory, ...]
    layers: tuple[int | None, ...]
    fields: np.ndarray

    @property
    def flops(self) -> np.ndarray:
        return self.fields[0]

    @property
    def weight_bytes(self) -> np.ndarray:
        return self.fields[1]

    @property
    def activation_bytes(self) -> np.ndarray:
        return self.fields[2]

    @property
    def kv_read_bytes(self) -> np.ndarray:
        return self.fields[3]

    @property
    def kv_write_bytes(self) -> np.ndarray:
        return self.fields[4]


def merge_totals(ops: list[Operator]) -> dict[str, float]:
    """Aggregate FLOPs and byte streams over a list of operators."""
    totals = {"flops": 0.0, "weight_bytes": 0.0, "activation_bytes": 0.0,
              "kv_read_bytes": 0.0, "kv_write_bytes": 0.0}
    for op in ops:
        totals["flops"] += op.flops
        totals["weight_bytes"] += op.weight_bytes
        totals["activation_bytes"] += op.activation_bytes
        totals["kv_read_bytes"] += op.kv_read_bytes
        totals["kv_write_bytes"] += op.kv_write_bytes
    return totals


def group_by_name(ops: list[Operator]) -> dict[str, list[Operator]]:
    """Group operators by name, preserving per-group order."""
    groups: dict[str, list[Operator]] = {}
    for op in ops:
        groups.setdefault(op.name, []).append(op)
    return groups
