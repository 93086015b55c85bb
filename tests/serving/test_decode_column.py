"""Decode tiles equal full-graph and scalar costing, bit for bit.

``StepCostTable`` costs decode in tiles of 16 batch sizes by 64 context
buckets: a ``decode_step_s`` miss costs the whole tile that holds its
shape in one array pass (``decode_columns`` + ``step_cost_columns``)
and finishes every shape of the tile in that pass.  These tests pin
every looked-up value to ``step_cost(decode_step_ops(...)).total_s``
over the full graph, and to the scalar one-block path the tiles
replaced (``scalar_step_s``, see ``stepcost_reference.py``), on fresh
tables.

Shapes sit on tile edges (batches 16/17 and 32/33, contexts
4,095/4,096), on both sides of bucket 1,024, at contexts 1, 63 and 64
(the floored first bucket and the one after it), and, per batch, at
the buckets around each context where the kv working set crosses the
LLC, a page size's TLB reach or the SGX EPC (``prefill_crossings`` /
batch).
"""

import random

import pytest

from repro.engine.roofline import cost_model_for
from repro.fleet.replica import REPLICA_KINDS, replica_spec
from repro.llm.config import GPTJ_6B, LLAMA2_7B, LLAMA2_70B
from repro.llm.datatypes import BFLOAT16, FLOAT32, INT8
from repro.llm.graph import decode_columns, decode_step_ops
from repro.llm.ops import OP_FIELDS
from repro.serving.stepcost import _TILE_BATCHES, _TILE_BUCKETS, StepCostTable
from repro.validate.differential import prefill_crossings

from .stepcost_reference import scalar_step_s

DTYPES = (FLOAT32, BFLOAT16, INT8)
BATCHES = (1, 16, 17, 32, 33, 64)
EDGE_CONTEXTS = (1, 63, 64, 960, 1023, 1024, 4095, 4096)


def _table(kind, model, dtype) -> StepCostTable:
    """A fresh table: nothing cached, nothing shared."""
    return StepCostTable(replica_spec(kind).deployment, model, dtype)


def _shapes(table: StepCostTable) -> list[tuple[int, int]]:
    """Edge and threshold (batch, context) shapes within the model."""
    top = table.model.max_position
    shapes = {(batch, context) for batch in BATCHES
              for context in EDGE_CONTEXTS}
    for crossing in prefill_crossings(table).values():
        for batch in BATCHES:
            # The crossing lies between these two buckets' working sets.
            bucket = table.context_bucket(int(crossing / batch))
            shapes.update((batch, context) for context in (bucket, bucket + 64)
                          if 1 <= context <= top)
    return sorted(shapes)


def _full_graph_s(table: StepCostTable, batch: int, bucket: int) -> float:
    ops = decode_step_ops(table.model, table.dtype, batch, bucket)
    return cost_model_for(table.deployment).step_cost(
        ops, table.working_sets(batch, bucket), table.dtype).total_s


def _scalar_s(table: StepCostTable, batch: int, bucket: int) -> float:
    ops = decode_step_ops(table._one_block, table.dtype, batch, bucket)
    return scalar_step_s(table, ops, table.working_sets(batch, bucket))


@pytest.mark.parametrize("model", [LLAMA2_7B, LLAMA2_70B, GPTJ_6B],
                         ids=lambda m: m.name)
def test_columns_equal_step_ops_fields(model):
    shapes = [(batch, context) for batch in BATCHES
              for context in (1, 16, 63, 64, 1000, 4096)]
    batches, contexts = zip(*shapes)
    columns = decode_columns(model, BFLOAT16, batches, contexts)
    for j, (batch, context) in enumerate(shapes):
        ops = decode_step_ops(model, BFLOAT16, batch, context)
        assert columns.names == tuple(op.name for op in ops)
        assert columns.categories == tuple(op.category for op in ops)
        assert columns.layers == tuple(op.layer for op in ops)
        for plane, field in enumerate(OP_FIELDS):
            got = columns.fields[plane, :, j].tolist()
            want = [float(getattr(op, field)) for op in ops]
            assert [v.hex() for v in got] == [v.hex() for v in want], (
                batch, context, field)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.name)
@pytest.mark.parametrize("kind", REPLICA_KINDS)
def test_lookups_equal_full_graph(kind, dtype):
    table = _table(kind, LLAMA2_7B, dtype)
    wants = {}
    for batch, context in _shapes(table):
        bucket = table.context_bucket(context)
        if (batch, bucket) not in wants:
            wants[batch, bucket] = _full_graph_s(table, batch, bucket).hex()
            assert wants[batch, bucket] == _scalar_s(table, batch,
                                                     bucket).hex()
        got = table.decode_step_s(batch, context)
        assert got.hex() == wants[batch, bucket], (batch, context)


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.name)
@pytest.mark.parametrize("kind", REPLICA_KINDS)
def test_deep_model_lookups_equal_scalar(kind, dtype):
    """70B (SGX pages at every context at f32/bf16) against the scalar
    one-block path, which the full-graph test pins to the full graph."""
    table = _table(kind, LLAMA2_70B, dtype)
    for batch, context in _shapes(table):
        bucket = table.context_bucket(context)
        got = table.decode_step_s(batch, context)
        assert got.hex() == _scalar_s(table, batch, bucket).hex(), (
            batch, context)


def test_thresholds_are_reached():
    """Some looked-up shape sits on each side of every crossing kind."""
    crossed = set()
    for kind in REPLICA_KINDS:
        for model in (LLAMA2_7B, LLAMA2_70B):
            for dtype in DTYPES:
                table = _table(kind, model, dtype)
                per_token = model.kv_bytes_per_token(dtype.bytes)
                shapes = _shapes(table)
                for name, crossing in prefill_crossings(table).items():
                    kv = crossing * per_token
                    sides = {batch * table.context_bucket(context)
                             * per_token <= kv
                             for batch, context in shapes}
                    if sides == {True, False}:
                        crossed.add(name.split("_")[0])
    assert crossed == {"llc", "tlb", "epc"}


@pytest.mark.parametrize("kind", ["tdx", "sgx", "cgpu"])
def test_tile_fill_order_does_not_matter(kind):
    """A tile filled from any corner equals one fresh table per shape."""
    model, dtype = LLAMA2_7B, BFLOAT16
    # The tile of batches 17..32 at buckets 16..4032.
    shapes = [(batch, max(16, k * 64))
              for batch in range(_TILE_BATCHES + 1, 2 * _TILE_BATCHES + 1)
              for k in range(_TILE_BUCKETS)]
    alone = [_table(kind, model, dtype).decode_step_s(*shape).hex()
             for shape in shapes]
    corners = [shapes[0], shapes[_TILE_BUCKETS - 1], shapes[-_TILE_BUCKETS],
               shapes[-1]]
    rng = random.Random(7)
    for corner in corners:
        table = _table(kind, model, dtype)
        table.decode_step_s(*corner)
        order = list(range(len(shapes)))
        rng.shuffle(order)
        got = {j: table.decode_step_s(*shapes[j]).hex() for j in order}
        assert [got[j] for j in range(len(shapes))] == alone, corner
        assert len(table._decode_tiles) == 1


def test_tile_edges():
    """Batches 16/17 and contexts 4,095/4,096 fall in different tiles."""
    table = _table("tdx", LLAMA2_7B, BFLOAT16)
    table.decode_step_s(16, 4095)
    table.decode_step_s(1, 16)
    assert list(table._decode_tiles) == [(0, 0)]
    table.decode_step_s(17, 4095)
    assert list(table._decode_tiles) == [(0, 0), (1, 0)]
    table.decode_step_s(16, 4096)
    assert list(table._decode_tiles) == [(0, 0), (1, 0), (0, 1)]
    assert all(len(tile) == _TILE_BATCHES * _TILE_BUCKETS
               for tile in table._decode_tiles.values())


def test_first_bucket_is_floored():
    """Contexts 1 and 63 share bucket 16; 64 starts the next bucket."""
    table = _table("tdx", LLAMA2_7B, BFLOAT16)
    assert table.decode_step_s(4, 1) == table.decode_step_s(4, 63)
    assert table.decode_step_s(4, 63) != table.decode_step_s(4, 64)
    assert sorted(table._step_cache) == [(4, 16), (4, 64)]
