"""The scalar one-block step costing the table's column passes replaced.

``StepCostTable`` costs both phases in array passes.  This is the
per-shape path it used before, kept only as a reference for the column
tests: cost the one-block twin's operator list with the cost model's
scalar ``step_cost`` (per-operator ``_op_cost``), then rebuild the full
step with the table's own ``_full_step_s``.
"""

from repro.engine.roofline import WorkingSets
from repro.llm.ops import Operator
from repro.serving.stepcost import StepCostTable


def scalar_step_s(table: StepCostTable, ops: list[Operator],
                  sets: WorkingSets) -> float:
    """Full-model step seconds from the one-block twin's graph ``ops``."""
    table._check_one_block([op.name for op in ops],
                           [op.layer for op in ops])
    step = table._cost_model.step_cost(ops, sets, table.dtype)
    return table._full_step_s([cost.total_s for cost in step.op_costs],
                              step)
