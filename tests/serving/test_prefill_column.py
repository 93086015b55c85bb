"""The prefill column equals the scalar reference, bit for bit.

``StepCostTable`` costs prefill in one array pass: every prompt length
it has not seen is costed at once (``prefill_columns`` +
``step_cost_columns``), and ``prefill_s``'s miss path is the same pass
at one length.  So comparing ``row_prefill`` with ``prefill_s`` cannot
see drift any more; these tests compare both with the scalar path they
replaced, ``scalar_step_s(prefill_ops(...))`` (one-block graph,
per-operator ``_op_cost``; see ``stepcost_reference.py``), on fresh
tables.

Lengths are Hypothesis-drawn from ``1..max_position``, plus each
table's threshold lengths +-1, where a ``<=`` test in the cost model
flips: the kv working set crossing the LLC's effective capacity, each
page size's per-core TLB reach, and the SGX EPC.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fleet.replica import REPLICA_KINDS, replica_spec
from repro.llm.config import GPTJ_6B, LLAMA2_7B, LLAMA2_13B, LLAMA2_70B
from repro.llm.datatypes import BFLOAT16, FLOAT32, INT8
from repro.llm.graph import prefill_columns, prefill_ops
from repro.serving.stepcost import StepCostTable
from repro.validate.differential import (
    prefill_crossings,
    prefill_threshold_lengths,
)

from .stepcost_reference import scalar_step_s

MODELS = (LLAMA2_7B, LLAMA2_13B, LLAMA2_70B, GPTJ_6B)
DTYPES = (FLOAT32, BFLOAT16, INT8)
TABLES = [(kind, model, dtype) for kind in REPLICA_KINDS
          for model in MODELS for dtype in DTYPES]


def _ids(case):
    kind, model, dtype = case
    return f"{kind}-{model.name}-{dtype.name}"


def _table(kind, model, dtype) -> StepCostTable:
    """A fresh table: nothing cached, nothing shared."""
    return StepCostTable(replica_spec(kind).deployment, model, dtype)


def _reference(table: StepCostTable, length: int) -> float:
    ops = prefill_ops(table._one_block, table.dtype, 1, length)
    return scalar_step_s(table, ops, table.working_sets(1, length))


def _assert_column_exact(table: StepCostTable, lengths: list[int]) -> None:
    seconds, _ = table.row_prefill(lengths)
    for length, got in zip(lengths, seconds):
        want = _reference(table, length)
        assert got.hex() == want.hex(), (length, got, want)


@pytest.mark.parametrize("case", TABLES, ids=_ids)
def test_threshold_lengths_are_exact(case):
    table = _table(*case)
    lengths = prefill_threshold_lengths(table)
    _assert_column_exact(table, lengths + [1, table.model.max_position])


@settings(max_examples=8, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("case", TABLES, ids=_ids)
def test_drawn_lengths_are_exact(case, data):
    table = _table(*case)
    top = table.model.max_position
    lengths = data.draw(st.lists(st.integers(1, top), min_size=1,
                                 max_size=12), label="lengths")
    _assert_column_exact(table, lengths)


@settings(max_examples=20, deadline=None)
@given(lengths=st.lists(st.integers(1, 4096), min_size=1, max_size=24),
       case=st.sampled_from(TABLES))
def test_column_equals_one_length_calls(lengths, case):
    """An N-length column equals N one-length misses on another table."""
    column, units = _table(*case).row_prefill(lengths)
    single = _table(*case)
    assert [value.hex() for value in column] == [
        single.prefill_s(length).hex() for length in lengths]
    assert units == [single.prefill_units(length) for length in lengths]


def test_column_fills_the_cache_once():
    table = _table("tdx", LLAMA2_7B, BFLOAT16)
    seconds, _ = table.row_prefill([300, 17, 300, 4096])
    assert sorted(table._prefill_cache) == [17, 300, 4096]
    assert table.prefill_s(17) == seconds[1]
    again, _ = table.row_prefill([17, 300])
    assert list(again) == [seconds[1], seconds[0]]


@pytest.mark.parametrize("bad", [0, -3])
def test_lengths_below_one_raise_as_check_shape_does(bad):
    table = _table("tdx", LLAMA2_7B, BFLOAT16)
    message = "sequence length must be >= 1"
    with pytest.raises(ValueError, match=message):
        prefill_ops(table._one_block, BFLOAT16, 1, bad)
    with pytest.raises(ValueError, match=message):
        prefill_columns(table._one_block, BFLOAT16, [5, bad])
    with pytest.raises(ValueError, match=message):
        table.row_prefill([5, bad])
    with pytest.raises(ValueError, match=message):
        table.prefill_s(bad)
    assert table._prefill_cache == {}


def test_thresholds_are_reached():
    """The matrix reaches every threshold kind the lengths can reach."""
    crossed = set()
    paging_active = False
    for case in TABLES:
        table = _table(*case)
        top = table.model.max_position
        for name, crossing in prefill_crossings(table).items():
            if 1 <= crossing <= top:
                crossed.add(name.split("_")[0])
            if name == "epc" and crossing < 1:
                paging_active = True
    assert {"llc", "tlb"} <= crossed
    # No EPC crossing falls inside 1..max_position, but SGX serving of
    # 70B at f32/bf16 pages at every length, so the paging term is
    # exercised on every drawn length of those tables.
    assert paging_active
