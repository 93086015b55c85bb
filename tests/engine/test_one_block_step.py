"""A model step is one decoder block and a repeat count.

Every simulator step is costed from the model's ``num_layers=1`` twin
and kept as a :class:`StepCost` of the twin's operators plus the block's
repeat count.  These tests pin that representation with ``==`` to the
flat per-layer graph it replaced: ``step_cost`` over ``prefill_ops`` /
``decode_step_ops`` of the full model, for the step's seconds, compute
and memory sums and every Fig. 7 trace event, and the same for the
sharded multi-GPU decode step and the RAG encoder pass.
"""

from dataclasses import replace

import pytest

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.engine.placement import (
    Deployment,
    GpuPlacement,
    Workload,
    weight_footprint,
)
from repro.engine.roofline import (
    GpuCostModel,
    OpCost,
    StepCost,
    WorkingSets,
    cost_model_for,
    gpu_io_bytes,
)
from repro.engine.simulator import decode_step_cost, prefill_step_cost
from repro.engine.trace import events_from_step
from repro.frameworks.base import VLLM_GPU
from repro.hardware.gpu import H100_NVL
from repro.llm.config import (
    CROSS_ENCODER,
    GPTJ_6B,
    LLAMA2_7B,
    LLAMA2_13B,
    LLAMA2_70B,
    SBERT_BASE,
)
from repro.llm.datatypes import BFLOAT16, INT8
from repro.llm.graph import (
    BLOCK_OP_NAMES,
    decode_step_ops,
    encode_ops,
    graph_order,
    prefill_ops,
)
from repro.llm.ops import Phase, merge_totals
from repro.rag.evaluate import ES_HEAP_RESIDENT_BYTES, _encode_time
from repro.scaleout.multigpu import simulate_multi_gpu
from repro.tee.base import backend_by_name

DEPLOYMENTS = {
    "baremetal": cpu_deployment("baremetal", sockets_used=1),
    "tdx": cpu_deployment("tdx", sockets_used=1),
    "sgx": cpu_deployment("sgx", sockets_used=1),
    "cgpu": gpu_deployment(confidential=True),
}

#: (batch, beams, prompt, decode context) of each step shape.
SHAPES = {"short": (1, 1, 128, 200), "beams": (4, 2, 1024, 1500)}

MODELS = {"7b": LLAMA2_7B, "13b": LLAMA2_13B, "70b": LLAMA2_70B}
DTYPES = {"bf16": BFLOAT16, "int8": INT8}

GRID = [(model, kind, dtype, shape, phase)
        for model in MODELS for kind in DEPLOYMENTS for dtype in DTYPES
        for shape in SHAPES for phase in ("prefill", "decode")]


def _flat_step(workload: Workload, deployment, phase: str) -> StepCost:
    """The step costed over the flat per-layer graph of the full model."""
    shape = (workload.model, workload.dtype, workload.batch_size)
    if phase == "prefill":
        context = workload.input_tokens
        ops = prefill_ops(*shape, context, workload.beam_size)
        io_phase = Phase.PREFILL
    else:
        context = workload.input_tokens + workload.output_tokens
        ops = decode_step_ops(*shape, context, workload.beam_size)
        io_phase = Phase.DECODE
    sets = WorkingSets(
        weights=weight_footprint(workload, deployment.framework),
        kv=(workload.sequences * context
            * workload.model.kv_bytes_per_token(workload.dtype.bytes)),
        activations=merge_totals(ops)["activation_bytes"])
    return cost_model_for(deployment).step_cost(
        ops, sets, workload.dtype,
        io_bytes=gpu_io_bytes(workload, io_phase))


def _events(step: StepCost, phase: Phase) -> list[tuple]:
    return [(event.name, event.layer, event.duration_s)
            for event in events_from_step(step, phase)]


@pytest.mark.parametrize("model, kind, dtype, shape, phase", GRID,
                         ids=["-".join(case) for case in GRID])
def test_twin_step_equals_flat_graph(model, kind, dtype, shape, phase):
    batch, beams, prompt, context = SHAPES[shape]
    workload = Workload(MODELS[model], DTYPES[dtype], batch_size=batch,
                        input_tokens=prompt, output_tokens=context - prompt,
                        beam_size=beams)
    deployment = DEPLOYMENTS[kind]
    if phase == "prefill":
        twin = prefill_step_cost(workload, deployment)
    else:
        twin = decode_step_cost(workload, deployment, context)
    flat = _flat_step(workload, deployment, phase)
    assert len(twin.op_costs) == 14
    assert twin.num_layers == workload.model.num_layers
    assert twin.total_s == flat.total_s
    assert twin.compute_s == flat.compute_s
    assert twin.memory_s == flat.memory_s
    assert twin.is_compute_bound() == flat.is_compute_bound()
    trace_phase = Phase(phase)
    assert _events(twin, trace_phase) == _events(flat, trace_phase)


def _flat_multi_gpu_s(workload: Workload, devices: int,
                      confidential: bool) -> float:
    """``simulate_multi_gpu``'s compute/memory seconds, sharding the flat
    per-layer decode graph."""
    deployment = Deployment(
        placement=GpuPlacement(gpu=H100_NVL),
        backend=backend_by_name("cgpu" if confidential else "gpu"),
        framework=VLLM_GPU)
    context = workload.input_tokens + workload.output_tokens // 2
    ops = decode_step_ops(workload.model, workload.dtype,
                          workload.batch_size, context, workload.beam_size)
    sharded = [op.scaled(1.0 / devices) for op in ops]
    sets = WorkingSets(weights=0.0, kv=0.0, activations=0.0)
    return GpuCostModel(deployment).step_cost(sharded, sets,
                                              workload.dtype).total_s


MULTI_GPU = [(LLAMA2_7B, devices, confidential)
             for devices in (1, 2, 4) for confidential in (False, True)] + [
    (LLAMA2_70B, devices, confidential)
    for devices in (2, 4) for confidential in (False, True)]


@pytest.mark.parametrize(
    "model, devices, confidential", MULTI_GPU,
    ids=[f"{model.name}-x{devices}-{'cc' if cc else 'plain'}"
         for model, devices, cc in MULTI_GPU])
def test_multi_gpu_shard_equals_flat_graph(model, devices, confidential):
    workload = Workload(model, BFLOAT16, batch_size=8, input_tokens=512,
                        output_tokens=128)
    result = simulate_multi_gpu(workload, devices, confidential)
    assert result.step_s == (_flat_multi_gpu_s(workload, devices,
                                               confidential)
                             + result.comm_s)


ENCODES = [(config, batch, tokens, kind)
           for config, batch, tokens in ((SBERT_BASE, 1, 12),
                                         (SBERT_BASE, 1, 512),
                                         (CROSS_ENCODER, 50, 96),
                                         (CROSS_ENCODER, 50, 512),
                                         (CROSS_ENCODER, 8, 200))
           for kind in ("baremetal", "tdx")]


@pytest.mark.parametrize(
    "config, batch, tokens, kind", ENCODES,
    ids=[f"{c.name}-{b}x{t}-{k}" for c, b, t, k in ENCODES])
def test_rag_encode_equals_flat_graph(config, batch, tokens, kind):
    model = cost_model_for(DEPLOYMENTS[kind])
    sets = WorkingSets(
        weights=config.num_parameters * BFLOAT16.bytes
        + ES_HEAP_RESIDENT_BYTES,
        kv=0.0, activations=ES_HEAP_RESIDENT_BYTES)
    flat = model.step_cost(encode_ops(config, BFLOAT16, batch, tokens),
                           sets, BFLOAT16)
    assert _encode_time(config, batch, tokens, model) == flat.total_s


def _expanded(twin_ops, num_layers):
    """The twin's operators in full-graph order, block ops renumbered."""
    return [op if repeat is None else replace(op, layer=op.layer + repeat)
            for op, repeat in graph_order(twin_ops, num_layers)]


class TestTwinGraph:
    """The twin's operators, repeated in graph order, are the full graph."""

    @pytest.mark.parametrize("context", [1, 2, 7, 64, 129, 4096])
    def test_matches_direct_builder(self, context):
        twin = decode_step_ops(replace(LLAMA2_7B, num_layers=1), BFLOAT16,
                               4, context)
        assert _expanded(twin, LLAMA2_7B.num_layers) \
            == decode_step_ops(LLAMA2_7B, BFLOAT16, 4, context)

    def test_matches_with_beams_and_dtype(self):
        twin = decode_step_ops(replace(GPTJ_6B, num_layers=1), INT8, 2, 333,
                               beam_size=3)
        assert _expanded(twin, GPTJ_6B.num_layers) \
            == decode_step_ops(GPTJ_6B, INT8, 2, 333, beam_size=3)

    def test_layout_is_embed_blocks_head(self):
        """Spelled out without ``graph_order``, which the flat builders
        share."""
        layers = LLAMA2_13B.num_layers
        ops = decode_step_ops(LLAMA2_13B, BFLOAT16, 1, 64)
        assert [op.name for op in ops] == (["embed_tokens"]
                                           + list(BLOCK_OP_NAMES) * layers
                                           + ["final_norm", "lm_head"])
        assert [op.layer for op in ops] == (
            [None] + [layer for layer in range(layers)
                      for _ in BLOCK_OP_NAMES] + [None, None])

    def test_flat_list_is_one_repeat(self):
        ops = prefill_ops(LLAMA2_7B, BFLOAT16, 1, 64)
        assert [op for op, _ in graph_order(ops, 1)] == ops


def test_repeated_step_must_be_one_block():
    """A step of several repeats refuses operators that are not embed +
    one block + head."""
    ops = decode_step_ops(LLAMA2_7B, BFLOAT16, 1, 64)
    costs = tuple(OpCost(op, 1.0, 1.0, 0.0, 0.0) for op in ops[:14])
    with pytest.raises(RuntimeError, match="one-block graph"):
        StepCost(op_costs=costs[1:], exits_s=0.0, fixed_s=0.0,
                 tax_multiplier=1.0, num_layers=2)
    StepCost(op_costs=costs[1:], exits_s=0.0, fixed_s=0.0,
             tax_multiplier=1.0)  # one repeat: any flat list
