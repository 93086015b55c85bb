"""Decoder op-graph construction for prefill and decode steps.

:func:`prefill_ops` and :func:`decode_step_ops` emit the operator stream
of one forward step.  The operator names match the per-block layer
categories in the paper's Fig. 7 trace study (input layernorm, QKV
projection, self-attention, output projection, post-attention layernorm,
gate/up projection with SiLU multiply, down projection, residuals).
"""

from __future__ import annotations

import math

from ..memo import MemoCache
from .config import ModelConfig
from .datatypes import DType
from .ops import AFFINE_FIELDS, AffineOp, Operator, OpCategory, Phase

#: Operator names emitted per decoder block, in execution order.
BLOCK_OP_NAMES = (
    "input_layernorm",
    "qkv_proj",
    "rotary_embed",
    "self_attention",
    "o_proj",
    "residual_add",
    "post_attention_layernorm",
    "gate_up_proj",
    "silu_mul",
    "down_proj",
    "residual_add_2",
)


def _norm_op(name: str, phase: Phase, layer: int | None, tokens: float,
             hidden: int, ds: float) -> Operator:
    return Operator(
        name=name, category=OpCategory.NORM, phase=phase, layer=layer,
        flops=5.0 * tokens * hidden,
        weight_bytes=hidden * ds,
        activation_bytes=2.0 * tokens * hidden * ds,
    )


def _decode_attention_op(model: ModelConfig, dtype: DType, layer: int,
                         context_len: float, sequences: float) -> Operator:
    """The one decode-phase operator whose cost depends on context.

    One new token per sequence attends to the full cached context.
    Kept as a standalone builder so :func:`cached_decode_step_ops` can
    materialize per-context graphs from a context-independent skeleton
    with the exact formulas below — the rebuilt operators are
    bit-identical to a direct :func:`decode_step_ops` call.
    """
    h, kv, ds = model.hidden_size, model.kv_dim, dtype.bytes
    attn_flops = 4.0 * sequences * h * context_len
    kv_read = 2.0 * sequences * context_len * kv * ds
    softmax_tokens = sequences * context_len
    return Operator(
        name="self_attention", category=OpCategory.ATTENTION,
        phase=Phase.DECODE, layer=layer,
        flops=attn_flops + 5.0 * model.num_heads * softmax_tokens,
        activation_bytes=2.0 * sequences * h * ds,
        kv_read_bytes=kv_read,
        kv_write_bytes=2.0 * sequences * kv * ds,
    )


def _block_ops(model: ModelConfig, dtype: DType, phase: Phase, layer: int,
               new_tokens: float, context_len: float,
               sequences: float) -> list[Operator]:
    """Operators of one decoder block.

    Args:
        new_tokens: Tokens processed this step across the whole batch
            (``sequences * seq_len`` in prefill, ``sequences`` in decode).
        context_len: Attended context length per sequence.
        sequences: Number of sequences (batch * beams).
    """
    h = model.hidden_size
    kv = model.kv_dim
    i = model.intermediate_size
    ds = dtype.bytes
    ops: list[Operator] = []

    ops.append(_norm_op("input_layernorm", phase, layer, new_tokens, h, ds))

    ops.append(Operator(
        name="qkv_proj", category=OpCategory.GEMM, phase=phase, layer=layer,
        flops=2.0 * new_tokens * h * (h + 2 * kv),
        weight_bytes=(h * h + 2 * h * kv) * ds,
        activation_bytes=new_tokens * (2 * h + 2 * kv) * ds,
    ))

    ops.append(Operator(
        name="rotary_embed", category=OpCategory.ELEMENTWISE, phase=phase,
        layer=layer,
        flops=6.0 * new_tokens * (h + kv),
        activation_bytes=2.0 * new_tokens * (h + kv) * ds,
    ))

    if phase is Phase.PREFILL:
        # Causal attention over the prompt: ~S^2/2 score and context MACs.
        seq_len = new_tokens / sequences
        attn_flops = 2.0 * sequences * h * seq_len * seq_len
        kv_read = 0.0
        softmax_tokens = sequences * seq_len * seq_len / 2.0
        ops.append(Operator(
            name="self_attention", category=OpCategory.ATTENTION, phase=phase,
            layer=layer,
            flops=attn_flops + 5.0 * model.num_heads * softmax_tokens,
            activation_bytes=2.0 * new_tokens * h * ds,
            kv_read_bytes=kv_read,
            kv_write_bytes=2.0 * new_tokens * kv * ds,
        ))
    else:
        ops.append(_decode_attention_op(model, dtype, layer, context_len,
                                        sequences))

    ops.append(Operator(
        name="o_proj", category=OpCategory.GEMM, phase=phase, layer=layer,
        flops=2.0 * new_tokens * h * h,
        weight_bytes=h * h * ds,
        activation_bytes=2.0 * new_tokens * h * ds,
    ))

    ops.append(Operator(
        name="residual_add", category=OpCategory.ELEMENTWISE, phase=phase,
        layer=layer,
        flops=new_tokens * h,
        activation_bytes=3.0 * new_tokens * h * ds,
    ))

    ops.append(_norm_op("post_attention_layernorm", phase, layer, new_tokens, h, ds))

    if model.mlp == "gated_silu":
        ops.append(Operator(
            name="gate_up_proj", category=OpCategory.GEMM, phase=phase,
            layer=layer,
            flops=2.0 * new_tokens * h * 2 * i,
            weight_bytes=2 * h * i * ds,
            activation_bytes=new_tokens * (h + 2 * i) * ds,
        ))
        ops.append(Operator(
            name="silu_mul", category=OpCategory.ELEMENTWISE, phase=phase,
            layer=layer,
            flops=5.0 * new_tokens * i,
            activation_bytes=3.0 * new_tokens * i * ds,
        ))
    else:
        ops.append(Operator(
            name="gate_up_proj", category=OpCategory.GEMM, phase=phase,
            layer=layer,
            flops=2.0 * new_tokens * h * i,
            weight_bytes=h * i * ds,
            activation_bytes=new_tokens * (h + i) * ds,
        ))
        ops.append(Operator(
            name="silu_mul", category=OpCategory.ELEMENTWISE, phase=phase,
            layer=layer,
            flops=8.0 * new_tokens * i,
            activation_bytes=2.0 * new_tokens * i * ds,
        ))

    ops.append(Operator(
        name="down_proj", category=OpCategory.GEMM, phase=phase, layer=layer,
        flops=2.0 * new_tokens * i * h,
        weight_bytes=h * i * ds,
        activation_bytes=new_tokens * (i + h) * ds,
    ))

    ops.append(Operator(
        name="residual_add_2", category=OpCategory.ELEMENTWISE, phase=phase,
        layer=layer,
        flops=new_tokens * h,
        activation_bytes=3.0 * new_tokens * h * ds,
    ))
    return ops


def _head_ops(model: ModelConfig, dtype: DType, phase: Phase,
              logits_tokens: float) -> list[Operator]:
    """Final norm and LM head for the tokens that need logits."""
    h, v, ds = model.hidden_size, model.vocab_size, dtype.bytes
    ops = [_norm_op("final_norm", phase, None, logits_tokens, h, ds)]
    if not model.encoder_only:
        ops.append(Operator(
            name="lm_head", category=OpCategory.GEMM, phase=phase, layer=None,
            flops=2.0 * logits_tokens * h * v,
            weight_bytes=h * v * ds,
            activation_bytes=logits_tokens * (h + v) * ds,
        ))
    return ops


def _embed_op(model: ModelConfig, dtype: DType, phase: Phase,
              tokens: float) -> Operator:
    h, ds = model.hidden_size, dtype.bytes
    return Operator(
        name="embed_tokens", category=OpCategory.EMBEDDING, phase=phase,
        layer=None,
        flops=0.0,
        weight_bytes=tokens * h * ds,
        activation_bytes=tokens * h * ds,
    )


def prefill_ops(model: ModelConfig, dtype: DType, batch_size: int,
                input_len: int, beam_size: int = 1) -> list[Operator]:
    """Operator stream of one prefill over the prompt.

    Beam search shares the prompt forward pass across beams (the KV cache
    is replicated afterwards), so prefill cost scales with ``batch_size``
    only.
    """
    _check_shape(batch_size, input_len, beam_size)
    sequences = float(batch_size)
    tokens = sequences * input_len
    ops = [_embed_op(model, dtype, Phase.PREFILL, tokens)]
    for layer in range(model.num_layers):
        ops.extend(_block_ops(model, dtype, Phase.PREFILL, layer,
                              new_tokens=tokens, context_len=float(input_len),
                              sequences=sequences))
    # Only the last position of each sequence needs logits after prefill.
    ops.extend(_head_ops(model, dtype, Phase.PREFILL, logits_tokens=sequences))
    return ops


def decode_step_ops(model: ModelConfig, dtype: DType, batch_size: int,
                    context_len: int, beam_size: int = 1) -> list[Operator]:
    """Operator stream of one decode step at a given context length."""
    _check_shape(batch_size, context_len, beam_size)
    sequences = float(batch_size * beam_size)
    ops = [_embed_op(model, dtype, Phase.DECODE, sequences)]
    for layer in range(model.num_layers):
        ops.extend(_block_ops(model, dtype, Phase.DECODE, layer,
                              new_tokens=sequences,
                              context_len=float(context_len),
                              sequences=sequences))
    ops.extend(_head_ops(model, dtype, Phase.DECODE, logits_tokens=sequences))
    return ops


def encode_ops(model: ModelConfig, dtype: DType, batch_size: int,
               input_len: int) -> list[Operator]:
    """Operator stream for a BERT-style encoder pass (RAG models)."""
    if not model.encoder_only:
        raise ValueError(f"{model.name} is not an encoder-only model")
    return prefill_ops(model, dtype, batch_size, input_len)


# -- memoized builders -------------------------------------------------------
#
# A sweep recosts the same (model, dtype, batch, length, beams) graph for
# every deployment and every repetition; building one graph allocates
# ~num_layers x 11 Operator records.  The cached builders return shared,
# immutable tuples — callers must not mutate them.

_GRAPH_CACHE = MemoCache("op_graph", maxsize=512)
_AFFINE_CACHE = MemoCache("affine_decode_graph", maxsize=256)

#: Contexts used to extract and validate the affine decode model.
_AFFINE_LO, _AFFINE_HI, _AFFINE_CHECK = 1, 2, 7


def cached_prefill_ops(model: ModelConfig, dtype: DType, batch_size: int,
                       input_len: int, beam_size: int = 1) -> tuple[Operator, ...]:
    """Memoized :func:`prefill_ops`; the returned tuple is shared."""
    key = ("prefill", model, dtype, batch_size, input_len, beam_size)
    return _GRAPH_CACHE.get_or_compute(
        key, lambda: tuple(prefill_ops(model, dtype, batch_size, input_len,
                                       beam_size)))


#: Reference context the decode skeleton is built at.  Any positive
#: value works — every operator except ``self_attention`` is identical
#: across contexts, and the attention ops are rebuilt per call.
_SKELETON_CONTEXT = 1


def cached_decode_step_ops(model: ModelConfig, dtype: DType, batch_size: int,
                           context_len: int, beam_size: int = 1) -> tuple[Operator, ...]:
    """Memoized :func:`decode_step_ops`, bit-identical to the direct call.

    In a decode graph only the per-layer ``self_attention`` operator
    depends on ``context_len``; keying the memo on the context made
    structurally identical graphs miss (a stride-1 context sweep paid
    one full ~``num_layers x 11``-operator build *per context*).  The
    cache therefore stores one context-independent *skeleton* per
    ``(model, dtype, batch, beams)`` and this function materializes the
    requested context by rebuilding just the attention operators with
    the original formulas (:func:`_decode_attention_op`).  Every other
    operator of the returned tuple is the skeleton's shared object.
    """
    _check_shape(batch_size, context_len, beam_size)
    key = ("decode", model, dtype, batch_size, beam_size)
    skeleton = _GRAPH_CACHE.get_or_compute(
        key, lambda: tuple(decode_step_ops(model, dtype, batch_size,
                                           _SKELETON_CONTEXT, beam_size)))
    if context_len == _SKELETON_CONTEXT:
        return skeleton
    sequences = float(batch_size * beam_size)
    return tuple(
        _decode_attention_op(model, dtype, op.layer, float(context_len),
                             sequences)
        if op.name == "self_attention" else op
        for op in skeleton)


def decode_step_affine(model: ModelConfig, dtype: DType, batch_size: int,
                       beam_size: int = 1) -> tuple[AffineOp, ...]:
    """Affine-in-context model of one decode step, layers collapsed.

    Builds the operator stream at two reference contexts, differences
    the cost fields into ``base + slope * context`` templates, verifies
    the affine model against a third context, and merges identical
    per-layer operators via ``multiplicity``.  The result is cached per
    ``(model, dtype, batch, beams)`` — it is independent of prompt and
    output lengths, so every input-length sweep shares one entry.

    Raises:
        RuntimeError: If some operator field is not affine in context
            (a graph change the vectorized engine cannot represent).
    """
    key = (model, dtype, batch_size, beam_size)
    return _AFFINE_CACHE.get_or_compute(
        key, lambda: _build_decode_affine(model, dtype, batch_size, beam_size))


def _build_decode_affine(model: ModelConfig, dtype: DType, batch_size: int,
                         beam_size: int) -> tuple[AffineOp, ...]:
    lo = cached_decode_step_ops(model, dtype, batch_size, _AFFINE_LO, beam_size)
    hi = cached_decode_step_ops(model, dtype, batch_size, _AFFINE_HI, beam_size)
    check = cached_decode_step_ops(model, dtype, batch_size, _AFFINE_CHECK,
                                   beam_size)
    groups: dict[tuple, AffineOp] = {}
    order: list[tuple] = []
    for op_lo, op_hi, op_check in zip(lo, hi, check):
        bases, slopes = {}, {}
        for field in AFFINE_FIELDS:
            v_lo, v_hi = getattr(op_lo, field), getattr(op_hi, field)
            slope = (v_hi - v_lo) / (_AFFINE_HI - _AFFINE_LO)
            base = v_lo - slope * _AFFINE_LO
            predicted = base + slope * _AFFINE_CHECK
            actual = getattr(op_check, field)
            if not math.isclose(predicted, actual, rel_tol=1e-9, abs_tol=1e-6):
                raise RuntimeError(
                    f"{op_lo.name}.{field} is not affine in context "
                    f"(predicted {predicted}, got {actual}); the vectorized "
                    f"decode engine cannot cost this graph")
            bases[field] = base
            slopes[field] = slope
        key = (op_lo.name, op_lo.category,
               tuple(bases.values()), tuple(slopes.values()))
        if key in groups:
            existing = groups[key]
            groups[key] = AffineOp(base=existing.base, slope=existing.slope,
                                   multiplicity=existing.multiplicity + 1)
        else:
            template = {"name": op_lo.name, "category": op_lo.category,
                        "phase": Phase.DECODE, "layer": op_lo.layer}
            groups[key] = AffineOp(
                base=Operator(**template, **bases),
                slope=Operator(**template, **slopes),
                multiplicity=1,
            )
            order.append(key)
    return tuple(groups[key] for key in order)


def _check_shape(batch_size: int, length: int, beam_size: int) -> None:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
