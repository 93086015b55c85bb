"""The one step-cost loop both cost models share.

``step_cost`` costs each distinct ``(category, flops, bytes)`` operator
of a step once and wraps one :class:`OpCost` per operator.  These tests
pin that every wrapped cost equals the operator costed on its own, that
no distinct operator is costed twice in a step (on the GPU too), and
that ``io_bytes`` charges bounce-buffer staging on a cGPU and nothing
on a CPU.
"""

import dataclasses
from collections import Counter

import pytest

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.engine.placement import Workload
from repro.engine.roofline import WorkingSets, cost_model_for, gpu_io_bytes
from repro.llm.config import GPTJ_6B, LLAMA2_7B
from repro.llm.datatypes import BFLOAT16
from repro.llm.graph import decode_columns, decode_step_ops, prefill_ops
from repro.llm.ops import OP_FIELDS, Operator, OpCategory, Phase
from repro.scaleout.comm import Parallelism, volume_for

DEPLOYMENTS = {
    "tdx": lambda: cpu_deployment("tdx", sockets_used=1),
    "sgx": lambda: cpu_deployment("sgx", sockets_used=1),
    "cgpu": lambda: gpu_deployment(confidential=True),
}


def sets_for(model, sequences, context):
    return WorkingSets(
        weights=model.weight_bytes(BFLOAT16.bytes),
        kv=sequences * context * model.kv_bytes_per_token(BFLOAT16.bytes),
        activations=50e6)


def step_graph(model, phase):
    if phase is Phase.PREFILL:
        return prefill_ops(model, BFLOAT16, 1, 96), sets_for(model, 1, 96)
    return (decode_step_ops(model, BFLOAT16, 4, 320),
            sets_for(model, 4, 320))


def sharded_graph(devices=4):
    """``scaleout.multigpu``'s sharded decode graph, with each block's
    tensor-parallel all-reduce as a ``COMMUNICATION`` operator."""
    model, sequences = LLAMA2_7B, 4
    volume = volume_for(Parallelism.TENSOR, model, BFLOAT16, devices,
                        tokens_per_step=float(sequences))
    per_layer = volume.bytes_per_step / model.num_layers
    ops = []
    for op in decode_step_ops(model, BFLOAT16, sequences, 320):
        if ops and ops[-1].layer is not None and op.layer != ops[-1].layer:
            ops.append(Operator("tp_allreduce", OpCategory.COMMUNICATION,
                                Phase.DECODE, ops[-1].layer, 0.0,
                                activation_bytes=per_layer))
        ops.append(op.scaled(1.0 / devices))
    assert sum(op.category is OpCategory.COMMUNICATION for op in ops) \
        == model.num_layers
    return ops, WorkingSets(weights=0.0, kv=0.0, activations=0.0)


def assert_each_op_costed_alone(cost_model, ops, sets):
    step = cost_model.step_cost(ops, sets, BFLOAT16)
    assert len(step.op_costs) == len(ops)
    for op, cost in zip(ops, step.op_costs):
        alone, = cost_model.step_cost([op], sets, BFLOAT16).op_costs
        assert cost.op is op
        assert (cost.compute_s, cost.memory_s, cost.translation_s,
                cost.paging_s) == (alone.compute_s, alone.memory_s,
                                   alone.translation_s, alone.paging_s)


@pytest.mark.parametrize("phase", [Phase.PREFILL, Phase.DECODE],
                         ids=lambda phase: phase.value)
@pytest.mark.parametrize("model", [LLAMA2_7B, GPTJ_6B],
                         ids=lambda model: model.name)
@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
def test_each_op_cost_equals_the_op_alone(kind, model, phase):
    ops, sets = step_graph(model, phase)
    assert_each_op_costed_alone(cost_model_for(DEPLOYMENTS[kind]()), ops,
                                sets)


@pytest.mark.parametrize("kind", ["tdx", "cgpu"])
def test_sharded_graph_with_communication_ops(kind):
    ops, sets = sharded_graph()
    assert_each_op_costed_alone(cost_model_for(DEPLOYMENTS[kind]()), ops,
                                sets)


@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
def test_ops_one_field_apart_are_costed_apart(kind):
    """A model graph's operators that share a category and FLOPs also
    share their bytes, so these operators differ in one field each."""
    base = Operator("op", OpCategory.GEMM, Phase.DECODE, 0, 4e9,
                    weight_bytes=3e7, activation_bytes=2e6,
                    kv_read_bytes=5e6, kv_write_bytes=1e5)
    variants = [dataclasses.replace(base, category=OpCategory.ELEMENTWISE)]
    variants += [dataclasses.replace(base, **{field: getattr(base, field) * 3})
                 for field in OP_FIELDS]
    ops = [op for variant in variants for op in (base, variant)]
    assert_each_op_costed_alone(cost_model_for(DEPLOYMENTS[kind]()), ops,
                                sets_for(LLAMA2_7B, 4, 320))


@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
def test_each_distinct_op_costed_once_per_step(kind, monkeypatch):
    cost_model = cost_model_for(DEPLOYMENTS[kind]())
    costed = Counter()
    original = type(cost_model)._op_cost

    def spy(self, op, sets, dtype, terms):
        costed[(op.category, op.flops, op.weight_bytes, op.activation_bytes,
                op.kv_read_bytes, op.kv_write_bytes)] += 1
        return original(self, op, sets, dtype, terms)

    monkeypatch.setattr(type(cost_model), "_op_cost", spy)
    for graph in (step_graph(LLAMA2_7B, Phase.DECODE), sharded_graph()):
        costed.clear()
        ops, sets = graph
        cost_model.step_cost(ops, sets, BFLOAT16)
        assert set(costed.values()) == {1}
        assert len(costed) < len(ops) / 10


@pytest.mark.parametrize("kind", sorted(DEPLOYMENTS))
def test_io_bytes_charged_only_on_the_bounce_buffer(kind):
    deployment = DEPLOYMENTS[kind]()
    cost_model = cost_model_for(deployment)
    workload = Workload(LLAMA2_7B, BFLOAT16, batch_size=4, input_tokens=320)
    io_bytes = gpu_io_bytes(workload, Phase.DECODE)
    ops, sets = step_graph(LLAMA2_7B, Phase.DECODE)
    plain = cost_model.step_cost(ops, sets, BFLOAT16)
    staged = cost_model.step_cost(ops, sets, BFLOAT16, io_bytes=io_bytes)
    columns = decode_columns(LLAMA2_7B, BFLOAT16, [4], [320])
    staged_columns = cost_model.step_cost_columns(columns, sets, BFLOAT16,
                                                  io_bytes=io_bytes)
    bounce = 0.0
    if kind == "cgpu":
        profile = cost_model.profile
        bounce = (deployment.placement.gpu.pcie.latency_s
                  + io_bytes / profile.bounce_bw)
        assert bounce > 0.0
    assert staged.op_costs == plain.op_costs
    assert (staged.exits_s, staged.tax_multiplier) \
        == (plain.exits_s, plain.tax_multiplier)
    assert staged.fixed_s == cost_model.profile.step_fixed_s + bounce
    assert staged_columns.fixed_s == staged.fixed_s
    assert (staged_columns.exits_s, staged_columns.tax_multiplier) \
        == (staged.exits_s, staged.tax_multiplier)
