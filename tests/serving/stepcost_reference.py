"""The scalar one-block step costing the table's column passes replaced.

``StepCostTable`` costs both phases in array passes.  This is the
per-shape path it used before, kept only as a reference for the column
tests: cost the one-block twin's operator list with the scalar
``step_cost`` both cost models share (``_op_cost`` once per distinct
operator), then rebuild the full step from it: embed, the block
``num_layers`` times, then the head.
"""

from repro.engine.roofline import WorkingSets, step_total_s
from repro.llm.graph import BLOCK_OP_NAMES
from repro.llm.ops import Operator
from repro.serving.stepcost import StepCostTable


def scalar_step_s(table: StepCostTable, ops: list[Operator],
                  sets: WorkingSets) -> float:
    """Full-model step seconds from the one-block twin's graph ``ops``."""
    width = len(BLOCK_OP_NAMES)
    assert tuple(op.name for op in ops[1:1 + width]) == BLOCK_OP_NAMES
    assert all(op.layer is None for op in [*ops[:1], *ops[1 + width:]])
    step = table._cost_model.step_cost(ops, sets, table.dtype)
    totals = [cost.total_s for cost in step.op_costs]
    full = (totals[:1] + totals[1:1 + width] * table.model.num_layers
            + totals[1 + width:])
    return step_total_s(full, step.exits_s, step.fixed_s,
                        step.tax_multiplier)
