"""Shared, memoized step-duration table for serving schedulers.

The continuous-batching scheduler
(:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`) charges
every decode step and prompt prefill through this table, and
the frozen reference loop behind ``serving.legacy_loop_parity`` charges
through the same one: there is exactly one code path that turns a step
shape into seconds, shared by every replica of a fleet.

Decode contexts are bucketed to 64-token multiples (floored at 16)
before the cost model runs, and prefill is keyed on the exact prompt
length.  A scheduler bound to a run reads prefill per *row*:
:meth:`StepCostTable.row_prefill` lays each row's prefill seconds out
as one column, and beside it the same duration as a whole number of
2**-1074 s (every finite double is an exact multiple of that), so the
scheduler can keep its queued prefill as an exact integer total that
subtracts without rounding.

A miss costs one decoder block, not ``num_layers`` of them.  Every
block of a step emits the same operators (only ``layer`` differs, and
the cost model reads neither ``name`` nor ``layer``), so the table
costs the 14 operators of a one-block twin of the model
(``num_layers=1``) and rebuilds the full step's per-operator totals in
graph order: embed, the block's totals repeated ``num_layers`` times,
then the head.  :func:`step_total_s` sums that list left to right,
exactly as :attr:`StepCost.total_s` sums the full graph, so the result
is bit-identical to costing the full graph
(``serving.stepcost_graph_parity`` pins this).  Never shortcut the sum
as ``num_layers * block_sum``: that rounds differently.

Prefill has one costing path, an array pass: every prompt length the
table has not seen is costed at once
(:func:`~repro.llm.graph.prefill_columns` builds the twin's operator
fields over a length array with the expressions :func:`prefill_ops`
evaluates, and ``step_cost_columns`` costs them term for term in the
scalar cost model's order), then each length is finished on Python
floats with :func:`step_total_s`.  Elementwise float64 arithmetic
rounds exactly as Python floats do, so every value equals
``_step_s(prefill_ops(...))`` bit for bit (``tests/serving/
test_prefill_column.py``).  A single-length miss is the same pass at
one length.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import replace

import numpy as np

from ..engine.placement import Deployment
from ..engine.roofline import (
    StepCost,
    StepCostColumns,
    WorkingSets,
    cost_model_for,
    step_total_s,
)
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
# prefill_ops is not called here: it is the scalar reference the prefill
# column equals, and stays importable beside decode_step_ops, where
# perfbench's tracer wraps both as graph building.
from ..llm.graph import (  # noqa: F401
    BLOCK_OP_NAMES,
    decode_step_ops,
    prefill_columns,
    prefill_ops,
)
from ..llm.ops import Operator
from ..memo import MemoCache

#: Shared tables by (deployment, model, dtype): a fleet of identical
#: replicas costs each unique prompt length once, not once per replica.
_SHARED_TABLES = MemoCache("step_cost_table", maxsize=32)

#: Decode contexts are memoized on multiples of this many tokens.
_CONTEXT_GRID = 64

#: Prefill units per second: a unit is 2**-1074 s, the smallest
#: subnormal double, so every finite double is a whole number of units,
#: sums of units are exact, and ``units / _UNITS_PER_S`` (int true
#: division) rounds the exact sum once.
_UNITS_PER_S = 1 << 1074


class StepCostTable:
    """Memoized decode-step and prefill durations for one deployment.

    Args:
        deployment: Where the model serves (any backend).
        model: Served architecture.
        dtype: Serving datatype.
    """

    def __init__(self, deployment: Deployment, model: ModelConfig,
                 dtype: DType) -> None:
        self.deployment = deployment
        self.model = model
        self.dtype = dtype
        self._cost_model = cost_model_for(deployment)
        self._one_block = replace(model, num_layers=1)
        self._step_cache: dict[tuple[int, int], float] = {}
        self._prefill_cache: dict[int, float] = {}

    @classmethod
    def shared(cls, deployment: Deployment, model: ModelConfig,
               dtype: DType) -> "StepCostTable":
        """The process-wide table for this configuration.

        Identical configurations (by value) share one memo, so a fleet
        of same-spec replicas never costs the same step shape twice.
        Falls back to a private table if the configuration is
        unhashable.
        """
        try:
            return _SHARED_TABLES.get_or_compute(
                (deployment, model, dtype),
                lambda: cls(deployment, model, dtype))
        except TypeError:
            return cls(deployment, model, dtype)

    @staticmethod
    def context_bucket(context: int) -> int:
        """Bucket a decode context to the memoized 64-token grid."""
        return max(16, (context // _CONTEXT_GRID) * _CONTEXT_GRID)

    def working_sets(self, batch: int, context: int) -> WorkingSets:
        """Per-stream working sets of a ``batch`` x ``context`` step.

        ``context`` may be an integer array; ``kv`` is then an array.
        """
        weights = self.model.weight_bytes(self.dtype.bytes)
        kv = batch * context * self.model.kv_bytes_per_token(self.dtype.bytes)
        return WorkingSets(weights=weights, kv=kv, activations=64e6)

    def _check_one_block(self, names: Sequence[str],
                         layers: Sequence[int | None]) -> None:
        """Refuse a graph that is not embed + one block + head."""
        width = len(BLOCK_OP_NAMES)
        if (tuple(names[1:1 + width]) != BLOCK_OP_NAMES
                or any(layer is not None
                       for layer in [*layers[:1], *layers[1 + width:]])):
            raise RuntimeError(
                f"one-block graph of {self.model.name} is not embed + "
                f"{width} block ops + head (got {list(names)}); "
                f"the step-cost table cannot rebuild the full step from it")

    def _full_step_s(self, totals: list[float],
                     step: StepCost | StepCostColumns) -> float:
        """Full-model step seconds from the twin's per-operator totals."""
        width = len(BLOCK_OP_NAMES)
        full = (totals[:1] + totals[1:1 + width] * self.model.num_layers
                + totals[1 + width:])
        return step_total_s(full, step.exits_s, step.fixed_s,
                            step.tax_multiplier)

    def _step_s(self, ops: list[Operator], sets: WorkingSets) -> float:
        """Full-model step seconds from the one-block twin's graph."""
        self._check_one_block([op.name for op in ops],
                              [op.layer for op in ops])
        step = self._cost_model.step_cost(ops, sets, self.dtype)
        return self._full_step_s([cost.total_s for cost in step.op_costs],
                                 step)

    def _prefill_column(self, lengths: list[int]) -> list[float]:
        """Single-sequence prefill seconds at every length, in one pass."""
        columns = prefill_columns(self._one_block, self.dtype, lengths)
        self._check_one_block(columns.names, columns.layers)
        step = self._cost_model.step_cost_columns(
            columns, self.working_sets(1, np.asarray(lengths, np.int64)),
            self.dtype)
        return [self._full_step_s(totals, step)
                for totals in step.op_totals.T.tolist()]

    def decode_step_s(self, batch: int, context: int) -> float:
        """Duration of one decode step at ``batch`` sequences."""
        context_bucket = max(16, (context // _CONTEXT_GRID) * _CONTEXT_GRID)
        key = (batch, context_bucket)
        cached = self._step_cache.get(key)
        if cached is None:
            ops = decode_step_ops(self._one_block, self.dtype, batch,
                                  context_bucket)
            cached = self._step_cache[key] = self._step_s(
                ops, self.working_sets(batch, context_bucket))
        return cached

    def prefill_s(self, prompt_tokens: int) -> float:
        """Duration of a single-sequence prefill of ``prompt_tokens``."""
        cached = self._prefill_cache.get(prompt_tokens)
        if cached is None:
            cached = self._prefill_cache[prompt_tokens] = \
                self._prefill_column([prompt_tokens])[0]
        return cached

    def _units_of(self, prompt_tokens: int) -> int:
        """:meth:`prefill_s` as an exact whole number of 2**-1074 s."""
        return _units(self.prefill_s(prompt_tokens))

    def row_prefill(self, prompts: np.ndarray) -> tuple[array, list[int]]:
        """Each row's prefill, for a column of prompt lengths.

        Returns the seconds as an ``array('d')`` and the same durations
        in units of 2**-1074 s as a list (rows of one length share one
        int object).  Every length not yet cached is costed in one
        array pass and cached, so each value is bit-identical to
        :meth:`prefill_s`.
        """
        lengths = np.asarray(prompts, dtype=np.int64).tolist()
        distinct = dict.fromkeys(lengths)
        cache = self._prefill_cache
        missing = [length for length in distinct if length not in cache]
        if missing:
            cache.update(zip(missing, self._prefill_column(missing)))
        units = {length: _units(cache[length]) for length in distinct}
        return (array("d", [cache[length] for length in lengths]),
                [units[length] for length in lengths])


def _units(seconds: float) -> int:
    """A finite double as an exact whole number of 2**-1074 s."""
    numerator, denominator = seconds.as_integer_ratio()
    return numerator * (_UNITS_PER_S // denominator)
