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
(``num_layers=1``) and rebuilds the full step with
:func:`~repro.engine.roofline.one_block_step_s`, as the paper
simulator's decode trajectory does: embed, the block's totals repeated
``num_layers`` times, then the head, summed left to right exactly as
:attr:`~repro.engine.roofline.StepCost.total_s` sums the full graph.
The result is bit-identical to costing the full graph
(``serving.stepcost_graph_parity`` pins this).

Both phases have one costing path, an array pass over the twin, and
one finishing function.  Prefill costs every prompt length the table
has not seen at once (:func:`~repro.llm.graph.prefill_columns`); a
single-length miss is the same pass at one length.  Decode costs in
tiles of 16 batch sizes by 64 context buckets (4,096 tokens of
context): a ``decode_step_s`` miss costs the whole tile that holds its
shape (:func:`~repro.llm.graph.decode_columns`) and finishes all of its
shapes in that pass, and the table keeps the tile as one list of
seconds that later misses index.  Each column builder evaluates the
expressions of :func:`prefill_ops` or :func:`decode_step_ops` over
float64 arrays, ``step_cost_columns`` costs them term for term in the
scalar cost model's order, and
:func:`~repro.engine.roofline.one_block_step_s` finishes every shape of
the pass at once, adding one operator row at a time in graph order,
never with a numpy reduction.  Elementwise float64 arithmetic rounds
exactly as Python floats do, so every value equals the scalar one-block
path (``step_cost`` over one shape's graph) bit for bit
(``tests/serving/test_prefill_column.py``,
``tests/serving/test_decode_column.py``), and lookup order does not
change any value.
"""

from __future__ import annotations

from array import array
from dataclasses import replace

import numpy as np

from .. import guards
from ..engine.placement import Deployment
from ..engine.roofline import WorkingSets, cost_model_for, one_block_step_s
from ..llm.config import ModelConfig
from ..llm.datatypes import DType
# prefill_ops and decode_step_ops are not called here: they are the
# scalar references the columns equal, and stay importable here because
# perfbench's tracer wraps both as graph building.
from ..llm.graph import (  # noqa: F401
    decode_columns,
    decode_step_ops,
    prefill_columns,
    prefill_ops,
)
from ..memo import MemoCache

#: Shared tables by (deployment, model, dtype): a fleet of identical
#: replicas costs each unique prompt length once, not once per replica.
_SHARED_TABLES = MemoCache("step_cost_table", maxsize=32)

#: Decode contexts are memoized on multiples of this many tokens.
_CONTEXT_GRID = 64

#: A decode tile spans this many batch sizes by :data:`_TILE_BUCKETS`
#: context buckets, costed and finished in one array pass.
_TILE_BATCHES = 16

#: Context buckets per decode tile (4,096 tokens of context).
_TILE_BUCKETS = 64

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
        self._decode_tiles: dict[tuple[int, int], list[float]] = {}
        self._prefill_cache: dict[int, float] = {}
        self._units_cache: dict[int, int] = {}

    @classmethod
    def shared(cls, deployment: Deployment, model: ModelConfig,
               dtype: DType) -> "StepCostTable":
        """The process-wide table for this configuration.

        Identical configurations (by value) share one memo, so a fleet
        of same-spec replicas never costs the same step shape twice.
        """
        return _SHARED_TABLES.get_or_compute(
            (deployment, model, dtype),
            lambda: cls(deployment, model, dtype))

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

    def _prefill_column(self, lengths: list[int]) -> list[float]:
        """Single-sequence prefill seconds at every length, in one pass."""
        columns = prefill_columns(self._one_block, self.dtype, lengths)
        step = self._cost_model.step_cost_columns(
            columns, self.working_sets(1, np.asarray(lengths, np.int64)),
            self.dtype)
        return one_block_step_s(columns, step, self.model.num_layers)

    def decode_step_s(self, batch: int, context: int) -> float:
        """Duration of one decode step at ``batch`` sequences."""
        key = (batch, max(16, (context // _CONTEXT_GRID) * _CONTEXT_GRID))
        cached = self._step_cache.get(key)
        if cached is None:
            cached = self._step_cache[key] = self._decode_miss(*key)
        return cached

    def _decode_miss(self, batch: int, bucket: int) -> float:
        """Read one decode shape from its tile, costing the tile first.

        The tile holding ``(batch, bucket)`` spans :data:`_TILE_BATCHES`
        batch sizes by :data:`_TILE_BUCKETS` context buckets; its first
        miss costs and finishes all of them in one array pass.
        """
        # Checked before the tile arithmetic, which would hide the value.
        guards.count("batch_size", batch, ge=1)
        batch_tile, batch_offset = divmod(batch - 1, _TILE_BATCHES)
        bucket_tile, bucket_offset = divmod(bucket // _CONTEXT_GRID,
                                            _TILE_BUCKETS)
        key = (batch_tile, bucket_tile)
        tile = self._decode_tiles.get(key)
        if tile is None:
            # Stored only once finished: a graph the full step cannot be
            # rebuilt from leaves no tile behind.
            tile = self._decode_tiles[key] = self._decode_tile(*key)
        return tile[batch_offset * _TILE_BUCKETS + bucket_offset]

    def _decode_tile(self, batch_tile: int, bucket_tile: int) -> list[float]:
        """Decode-step seconds over one tile, in one pass.

        Entry ``i * _TILE_BUCKETS + k`` is batch ``batch_tile *
        _TILE_BATCHES + 1 + i`` at context bucket ``max(16, (bucket_tile
        * _TILE_BUCKETS + k) * _CONTEXT_GRID)``.
        """
        batches = np.arange(batch_tile * _TILE_BATCHES + 1,
                            (batch_tile + 1) * _TILE_BATCHES + 1)
        buckets = np.maximum(16, np.arange(bucket_tile * _TILE_BUCKETS,
                                           (bucket_tile + 1) * _TILE_BUCKETS)
                             * _CONTEXT_GRID)
        batches = np.repeat(batches, _TILE_BUCKETS)
        buckets = np.tile(buckets, _TILE_BATCHES)
        columns = decode_columns(self._one_block, self.dtype, batches,
                                 buckets)
        step = self._cost_model.step_cost_columns(
            columns, self.working_sets(batches, buckets), self.dtype)
        return one_block_step_s(columns, step, self.model.num_layers)

    def prefill_s(self, prompt_tokens: int) -> float:
        """Duration of a single-sequence prefill of ``prompt_tokens``."""
        cached = self._prefill_cache.get(prompt_tokens)
        if cached is None:
            cached = self._prefill_cache[prompt_tokens] = \
                self._prefill_column([prompt_tokens])[0]
        return cached

    def prefill_units(self, prompt_tokens: int) -> int:
        """:meth:`prefill_s` as an exact whole number of 2**-1074 s,
        memoized per length (the conversion is a big-int product)."""
        units = self._units_cache.get(prompt_tokens)
        if units is None:
            units = self._units_cache[prompt_tokens] = _units(
                self.prefill_s(prompt_tokens))
        return units

    def row_prefill(self, prompts: np.ndarray) -> tuple[array, list[int]]:
        """Each row's prefill, for a column of prompt lengths.

        Returns the seconds as an ``array('d')`` and the same durations
        in units of 2**-1074 s as a list (rows of one length share the
        :meth:`prefill_units` memo's int object).  Every length not yet
        cached is costed in one array pass and cached, so each value is
        bit-identical to :meth:`prefill_s`.
        """
        lengths = np.asarray(prompts, dtype=np.int64).tolist()
        distinct = dict.fromkeys(lengths)
        cache = self._prefill_cache
        missing = [length for length in distinct if length not in cache]
        if missing:
            cache.update(zip(missing, self._prefill_column(missing)))
        units = {length: self.prefill_units(length) for length in distinct}
        return (array("d", [cache[length] for length in lengths]),
                [units[length] for length in lengths])


def _units(seconds: float) -> int:
    """A finite double as an exact whole number of 2**-1074 s."""
    numerator, denominator = seconds.as_integer_ratio()
    return numerator * (_UNITS_PER_S // denominator)
