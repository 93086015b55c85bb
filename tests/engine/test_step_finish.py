"""One finishing rule for a step's seconds, on floats and on columns.

``step_total_s`` adds a step's operator totals left to right from 0.0,
one IEEE add each, and ``one_block_step_s`` finishes every shape of a
one-block column pass with the same adds in the same order, one
operator row at a time.  These tests pin the rule itself (a compensated
or pairwise sum would give other bits) and check the column finish
against the full graph's ``StepCost.total_s`` with ``==`` at 1, 2, 498
and 1,024 shapes.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.roofline import (
    OpCost,
    StepCost,
    cost_model_for,
    one_block_step_s,
    step_total_s,
)
from repro.fleet.replica import replica_spec
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.llm.graph import prefill_columns, prefill_ops
from repro.llm.ops import Operator, OpCategory, Phase
from repro.serving.stepcost import StepCostTable


def test_step_total_adds_left_to_right():
    """Each 1.0 is absorbed by 1e100 in turn; a compensated sum (Python
    >= 3.12's ``sum()`` of floats) would keep both and give 2.0."""
    assert step_total_s([1.0, 1e100, 1.0, -1e100], 0.0, 0.0, 1.0) == 0.0
    assert step_total_s([], 0.5, 0.25, 2.0) == 1.25


def test_step_compute_and_memory_add_left_to_right():
    """``StepCost.compute_s`` and ``memory_s`` absorb the 1.0 into 1e100
    as ``step_total_s`` does; a compensated ``sum()`` would keep it."""
    op = Operator("x", OpCategory.ELEMENTWISE, Phase.DECODE, None, 0.0)
    step = StepCost(
        op_costs=tuple(OpCost(op, value, value, 0.0, 0.0)
                       for value in (1e100, 1.0, -1e100)),
        exits_s=0.0, fixed_s=0.0, tax_multiplier=1.0)
    assert step.compute_s == 0.0
    assert step.memory_s == 0.0


# Each full-graph reference costs ~2 ms, so the wide passes run on TDX
# alone (exits, a tax multiplier and a fixed term all apply there).
@pytest.mark.parametrize("kind, shapes", [
    ("tdx", 1), ("tdx", 2), ("tdx", 498), ("tdx", 1024),
    ("sgx", 1), ("sgx", 2), ("cgpu", 1), ("cgpu", 2)])
def test_column_finish_equals_full_graph(kind, shapes):
    spec = replica_spec(kind)
    table = StepCostTable(spec.deployment, LLAMA2_7B, BFLOAT16)
    lengths = sorted(random.Random(shapes).sample(
        range(1, LLAMA2_7B.max_position + 1), shapes))
    columns = prefill_columns(replace(LLAMA2_7B, num_layers=1), BFLOAT16,
                              lengths)
    model = cost_model_for(spec.deployment)
    step = model.step_cost_columns(
        columns, table.working_sets(1, np.asarray(lengths)), BFLOAT16)
    got = one_block_step_s(columns, step, LLAMA2_7B.num_layers)
    want = [model.step_cost(prefill_ops(LLAMA2_7B, BFLOAT16, 1, length),
                            table.working_sets(1, length), BFLOAT16).total_s
            for length in lengths]
    assert got == want


def test_step_total_is_summed_once(monkeypatch):
    """``StepCost.total_s`` reads each operator's total once, then keeps
    the sum."""
    spec = replica_spec("tdx")
    model = cost_model_for(spec.deployment)
    table = StepCostTable(spec.deployment, LLAMA2_7B, BFLOAT16)
    step = model.step_cost(prefill_ops(LLAMA2_7B, BFLOAT16, 1, 64),
                           table.working_sets(1, 64), BFLOAT16)
    reads = []
    original = OpCost.total_s
    monkeypatch.setattr(OpCost, "total_s", property(
        lambda cost: reads.append(1) or original.fget(cost)))
    first = step.total_s
    assert len(reads) == len(step.op_costs)
    assert step.total_s == first and len(reads) == len(step.op_costs)
