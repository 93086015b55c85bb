"""StepCostTable: one-block misses, bit-identical to full-graph costing.

A table miss builds the graph of a one-block twin of the model and
rebuilds the full step's total from it.  These tests pin the result to
``step_cost(<full graph>).total_s`` with float equality (not a
tolerance) on every replica kind and dtype, and check that a miss
really costs one block, in one array pass (``step_cost_columns``): a
prefill miss at its one length, a decode miss over the whole tile that
holds its shape.
"""

import pytest

from repro.engine.roofline import CpuCostModel, GpuCostModel, cost_model_for
from repro.fleet.replica import REPLICA_KINDS, replica_spec
from repro.llm.config import GPTJ_6B, LLAMA2_7B, LLAMA2_70B
from repro.llm.datatypes import BFLOAT16, FLOAT32, INT8
from repro.llm.graph import (
    BLOCK_OP_NAMES,
    decode_columns,
    decode_step_ops,
    prefill_columns,
    prefill_ops,
)
from repro.serving import stepcost
from repro.serving.stepcost import StepCostTable

PROMPTS = (1, 17, 1024)
DECODE_SHAPES = ((1, 16), (16, 1024), (64, 4032))


def full_graph_s(table, ops, sets):
    cost_model = cost_model_for(table.deployment)
    return cost_model.step_cost(ops, sets, table.dtype).total_s


@pytest.mark.parametrize("dtype", [FLOAT32, BFLOAT16, INT8],
                         ids=lambda d: d.name)
@pytest.mark.parametrize("kind", REPLICA_KINDS)
class TestFullGraphParity:
    def test_prefill_bit_identical(self, kind, dtype):
        table = StepCostTable(replica_spec(kind).deployment, LLAMA2_7B, dtype)
        for prompt in PROMPTS:
            want = full_graph_s(table, prefill_ops(LLAMA2_7B, dtype, 1, prompt),
                                table.working_sets(1, prompt))
            assert table.prefill_s(prompt) == want

    def test_decode_bit_identical(self, kind, dtype):
        table = StepCostTable(replica_spec(kind).deployment, GPTJ_6B, dtype)
        for batch, bucket in DECODE_SHAPES:
            want = full_graph_s(
                table, decode_step_ops(GPTJ_6B, dtype, batch, bucket),
                table.working_sets(batch, bucket))
            assert table.decode_step_s(batch, bucket) == want


@pytest.mark.parametrize("kind", ["tdx", "cgpu"])
def test_miss_costs_one_block(kind, monkeypatch):
    seen = []

    def spy(original, count):
        def costed(self, ops, *args, **kwargs):
            seen.append(count(ops))
            return original(self, ops, *args, **kwargs)
        return costed

    for cls in (CpuCostModel, GpuCostModel):
        monkeypatch.setattr(cls, "step_cost", spy(cls.step_cost, len))
        monkeypatch.setattr(cls, "step_cost_columns", spy(
            cls.step_cost_columns, lambda columns: len(columns.names)))
    table = StepCostTable(replica_spec(kind).deployment, LLAMA2_70B, BFLOAT16)
    table.prefill_s(1024)
    table.decode_step_s(16, 1000)
    assert len(seen) == 2  # one costing per miss
    assert all(count <= 16 for count in seen)
    assert all(count == 1 + len(BLOCK_OP_NAMES) + 2 for count in seen)
    table.prefill_s(1024)
    table.decode_step_s(16, 1023)  # same 64-token bucket: a hit
    assert len(seen) == 2
    table.decode_step_s(1, 16)  # same tile, new shape: costs nothing
    table.decode_step_s(9, 999)
    table.decode_step_s(16, 4095)
    assert len(seen) == 2
    table.decode_step_s(17, 1000)  # the next batch tile
    table.decode_step_s(16, 4096)  # the next context tile
    assert len(seen) == 4
    assert len(table._step_cache) == 6


def test_unexpected_graph_shape_raises(monkeypatch):
    """A builder that ignores the one-block twin must fail loudly."""
    table = StepCostTable(replica_spec("tdx").deployment, LLAMA2_7B, BFLOAT16)
    monkeypatch.setattr(stepcost, "prefill_columns",
                        lambda model, dtype, lengths: prefill_columns(
                            LLAMA2_7B, dtype, lengths))
    with pytest.raises(RuntimeError, match="one-block graph"):
        table.prefill_s(64)
    with pytest.raises(RuntimeError, match="one-block graph"):
        table.row_prefill([64, 65])


def test_unexpected_decode_graph_shape_raises(monkeypatch):
    """A decode builder that ignores the one-block twin must fail loudly."""
    table = StepCostTable(replica_spec("tdx").deployment, LLAMA2_7B, BFLOAT16)
    monkeypatch.setattr(stepcost, "decode_columns",
                        lambda model, dtype, batches, contexts:
                        decode_columns(LLAMA2_7B, dtype, batches, contexts))
    with pytest.raises(RuntimeError, match="one-block graph"):
        table.decode_step_s(4, 500)
    assert table._step_cache == {} and table._decode_tiles == {}


@pytest.mark.parametrize("batch", [0, -3, -16, 2.0, 1.5, "4", None])
def test_decode_batch_must_be_a_positive_int(batch):
    """The caller's batch is named, not a tile offset derived from it."""
    table = StepCostTable(replica_spec("tdx").deployment, LLAMA2_7B, BFLOAT16)
    with pytest.raises(ValueError, match=rf"got {batch!r}$"):
        table.decode_step_s(batch, 500)
    assert table._step_cache == {} and table._decode_tiles == {}
