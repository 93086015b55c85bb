"""Decoder op-graph construction for prefill and decode steps.

:func:`prefill_ops` and :func:`decode_step_ops` emit the operator stream
of one forward step.  Their column twins build the same fields at many
step shapes at once, from the same expressions: :func:`prefill_columns`
for single-sequence prefill at many prompt lengths, and
:func:`decode_columns` for decode at many (batch, context) shapes.  The
operator names match the per-block layer categories in the paper's
Fig. 7 trace study (input layernorm, QKV projection, self-attention,
output projection, post-attention layernorm, gate/up projection with
SiLU multiply, down projection, residuals).  :func:`graph_order` says
how a ``num_layers=1`` twin's rows make the full step.
"""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

import numpy as np

from .config import ModelConfig
from .datatypes import DType
from .ops import OP_FIELDS, OpColumns, Operator, OpCategory, Phase

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

_Row = TypeVar("_Row")


def graph_order(rows: Sequence[_Row],
                num_layers: int) -> Iterator[tuple[_Row, int | None]]:
    """A one-block step's rows in full-graph order, each with its block.

    ``rows`` has one entry (a spec, a cost, an array row) per operator of
    a ``num_layers=1`` step graph: embed, the block, the head.  The full
    step is embed, the block ``num_layers`` times, then the head; each
    row comes with its block repeat, ``None`` for embed and head.  With
    ``num_layers=1`` the rows keep their order: a flat list is a step.
    """
    width = len(BLOCK_OP_NAMES)
    for row in rows[:1]:
        yield row, None
    block = list(rows[1:1 + width])
    for layer in range(num_layers):
        for row in block:
            yield row, layer
    for row in rows[1 + width:]:
        yield row, None


#: An operator before it is placed in a step: ``(name, category,
#: fields)``, with ``fields`` in :data:`~repro.llm.ops.OP_FIELDS`
#: order.  A field is a float, or a float64 array when the step's
#: shape is an array (:func:`prefill_columns`, :func:`decode_columns`);
#: the same expressions compute both.
OpSpec = tuple[str, OpCategory, tuple]


def _op(spec: OpSpec, phase: Phase, layer: int | None) -> Operator:
    name, category, fields = spec
    return Operator(name, category, phase, layer, *fields)


def _norm_spec(name: str, tokens, hidden: int, ds: float) -> OpSpec:
    return (name, OpCategory.NORM,
            (5.0 * tokens * hidden, hidden * ds, 2.0 * tokens * hidden * ds,
             0.0, 0.0))


def _decode_attention_spec(model: ModelConfig, dtype: DType,
                           context_len: float, sequences: float) -> OpSpec:
    """One new token per sequence attends to the full cached context."""
    h, kv, ds = model.hidden_size, model.kv_dim, dtype.bytes
    attn_flops = 4.0 * sequences * h * context_len
    kv_read = 2.0 * sequences * context_len * kv * ds
    softmax_tokens = sequences * context_len
    return ("self_attention", OpCategory.ATTENTION,
            (attn_flops + 5.0 * model.num_heads * softmax_tokens, 0.0,
             2.0 * sequences * h * ds, kv_read, 2.0 * sequences * kv * ds))


def _prefill_attention_spec(model: ModelConfig, dtype: DType, new_tokens,
                            sequences: float) -> OpSpec:
    """Causal attention over the prompt: ~S^2/2 score and context MACs."""
    h, kv, ds = model.hidden_size, model.kv_dim, dtype.bytes
    seq_len = new_tokens / sequences
    attn_flops = 2.0 * sequences * h * seq_len * seq_len
    kv_read = 0.0
    softmax_tokens = sequences * seq_len * seq_len / 2.0
    return ("self_attention", OpCategory.ATTENTION,
            (attn_flops + 5.0 * model.num_heads * softmax_tokens, 0.0,
             2.0 * new_tokens * h * ds, kv_read, 2.0 * new_tokens * kv * ds))


def _block_specs(model: ModelConfig, dtype: DType, new_tokens,
                 attention: OpSpec) -> list[OpSpec]:
    """Operators of one decoder block around its ``attention`` operator.

    Args:
        new_tokens: Tokens processed this step across the whole batch
            (``sequences * seq_len`` in prefill, ``sequences`` in decode).
        attention: The phase's ``self_attention`` operator.
    """
    h = model.hidden_size
    kv = model.kv_dim
    i = model.intermediate_size
    ds = dtype.bytes
    gemm, elementwise = OpCategory.GEMM, OpCategory.ELEMENTWISE
    specs: list[OpSpec] = [
        _norm_spec("input_layernorm", new_tokens, h, ds),
        ("qkv_proj", gemm,
         (2.0 * new_tokens * h * (h + 2 * kv), (h * h + 2 * h * kv) * ds,
          new_tokens * (2 * h + 2 * kv) * ds, 0.0, 0.0)),
        ("rotary_embed", elementwise,
         (6.0 * new_tokens * (h + kv), 0.0,
          2.0 * new_tokens * (h + kv) * ds, 0.0, 0.0)),
        attention,
        ("o_proj", gemm,
         (2.0 * new_tokens * h * h, h * h * ds,
          2.0 * new_tokens * h * ds, 0.0, 0.0)),
        ("residual_add", elementwise,
         (new_tokens * h, 0.0, 3.0 * new_tokens * h * ds, 0.0, 0.0)),
        _norm_spec("post_attention_layernorm", new_tokens, h, ds),
    ]
    if model.mlp == "gated_silu":
        specs += [
            ("gate_up_proj", gemm,
             (2.0 * new_tokens * h * 2 * i, 2 * h * i * ds,
              new_tokens * (h + 2 * i) * ds, 0.0, 0.0)),
            ("silu_mul", elementwise,
             (5.0 * new_tokens * i, 0.0, 3.0 * new_tokens * i * ds,
              0.0, 0.0)),
        ]
    else:
        specs += [
            ("gate_up_proj", gemm,
             (2.0 * new_tokens * h * i, h * i * ds,
              new_tokens * (h + i) * ds, 0.0, 0.0)),
            ("silu_mul", elementwise,
             (8.0 * new_tokens * i, 0.0, 2.0 * new_tokens * i * ds,
              0.0, 0.0)),
        ]
    specs += [
        ("down_proj", gemm,
         (2.0 * new_tokens * i * h, h * i * ds,
          new_tokens * (i + h) * ds, 0.0, 0.0)),
        ("residual_add_2", elementwise,
         (new_tokens * h, 0.0, 3.0 * new_tokens * h * ds, 0.0, 0.0)),
    ]
    return specs


def _head_specs(model: ModelConfig, dtype: DType,
                logits_tokens: float) -> list[OpSpec]:
    """Final norm and LM head for the tokens that need logits."""
    h, v, ds = model.hidden_size, model.vocab_size, dtype.bytes
    specs = [_norm_spec("final_norm", logits_tokens, h, ds)]
    if not model.encoder_only:
        specs.append(("lm_head", OpCategory.GEMM,
                      (2.0 * logits_tokens * h * v, h * v * ds,
                       logits_tokens * (h + v) * ds, 0.0, 0.0)))
    return specs


def _embed_spec(model: ModelConfig, dtype: DType, tokens) -> OpSpec:
    h, ds = model.hidden_size, dtype.bytes
    return ("embed_tokens", OpCategory.EMBEDDING,
            (0.0, tokens * h * ds, tokens * h * ds, 0.0, 0.0))


def _step_specs(embed: OpSpec, block: list[OpSpec], head: list[OpSpec],
                num_layers: int) -> tuple[list[OpSpec], list[int | None]]:
    """A step's operators in graph order, with each one's layer."""
    order = list(graph_order([embed, *block, *head], num_layers))
    return [spec for spec, _ in order], [layer for _, layer in order]


def _prefill_step(model: ModelConfig, dtype: DType, sequences: float,
                  input_len) -> tuple[list[OpSpec], list[int | None]]:
    tokens = sequences * input_len
    attention = _prefill_attention_spec(model, dtype, tokens, sequences)
    # Only the last position of each sequence needs logits after prefill.
    return _step_specs(_embed_spec(model, dtype, tokens),
                       _block_specs(model, dtype, tokens, attention),
                       _head_specs(model, dtype, logits_tokens=sequences),
                       model.num_layers)


def prefill_ops(model: ModelConfig, dtype: DType, batch_size: int,
                input_len: int, beam_size: int = 1) -> list[Operator]:
    """Operator stream of one prefill over the prompt.

    Beam search shares the prompt forward pass across beams (the KV cache
    is replicated afterwards), so prefill cost scales with ``batch_size``
    only.
    """
    _check_shape(batch_size, input_len, beam_size)
    specs, layers = _prefill_step(model, dtype, float(batch_size), input_len)
    return [_op(spec, Phase.PREFILL, layer)
            for spec, layer in zip(specs, layers)]


def prefill_columns(model: ModelConfig, dtype: DType,
                    input_lens) -> OpColumns:
    """Single-sequence :func:`prefill_ops` at every length at once.

    Operator ``k`` of ``prefill_ops(model, dtype, 1, input_lens[j])`` is
    row ``k``, column ``j`` of the result.  Both come from the same
    expressions evaluated on a float64 length array instead of a float,
    so every field is bitwise equal to the per-length graph's.
    """
    lengths = np.asarray(input_lens, dtype=np.float64)
    if lengths.size:
        _check_shape(1, lengths.min().item(), 1)
    return _columns(*_prefill_step(model, dtype, 1.0, lengths), lengths.size)


def _decode_step(model: ModelConfig, dtype: DType, sequences,
                 context_len) -> tuple[list[OpSpec], list[int | None]]:
    attention = _decode_attention_spec(model, dtype, context_len, sequences)
    return _step_specs(_embed_spec(model, dtype, sequences),
                       _block_specs(model, dtype, sequences, attention),
                       _head_specs(model, dtype, sequences),
                       model.num_layers)


def decode_step_ops(model: ModelConfig, dtype: DType, batch_size: int,
                    context_len: int, beam_size: int = 1) -> list[Operator]:
    """Operator stream of one decode step at a given context length."""
    _check_shape(batch_size, context_len, beam_size)
    specs, layers = _decode_step(model, dtype,
                                 float(batch_size * beam_size),
                                 float(context_len))
    return [_op(spec, Phase.DECODE, layer)
            for spec, layer in zip(specs, layers)]


def decode_columns(model: ModelConfig, dtype: DType, batches,
                   contexts) -> OpColumns:
    """:func:`decode_step_ops` at many (batch, context) shapes at once.

    Operator ``k`` of ``decode_step_ops(model, dtype, batches[j],
    contexts[j])`` is row ``k``, column ``j`` of the result.  Both come
    from the same expressions evaluated on float64 batch and context
    arrays instead of floats, so every field is bitwise equal to the
    per-shape graph's.
    """
    sequences = np.asarray(batches, dtype=np.float64)
    context_lens = np.asarray(contexts, dtype=np.float64)
    if sequences.shape != context_lens.shape or sequences.ndim != 1:
        raise ValueError(
            f"batches and contexts must be aligned 1-d arrays, got shapes "
            f"{sequences.shape} and {context_lens.shape}")
    if sequences.size:
        _check_shape(sequences.min().item(), context_lens.min().item(), 1)
    return _columns(*_decode_step(model, dtype, sequences, context_lens),
                    sequences.size)


def _columns(specs: list[OpSpec], layers: list[int | None],
             shapes: int) -> OpColumns:
    """A step's operator specs laid out as ``shapes`` columns."""
    fields = np.zeros((len(OP_FIELDS), len(specs), shapes))
    for row, (_, _, values) in enumerate(specs):
        for plane, value in enumerate(values):
            if isinstance(value, np.ndarray) or value:  # 0.0 is already set
                fields[plane, row] = value
    return OpColumns(names=tuple(spec[0] for spec in specs),
                     categories=tuple(spec[1] for spec in specs),
                     layers=tuple(layers), fields=fields)


def encode_ops(model: ModelConfig, dtype: DType, batch_size: int,
               input_len: int) -> list[Operator]:
    """Operator stream for a BERT-style encoder pass (RAG models)."""
    if not model.encoder_only:
        raise ValueError(f"{model.name} is not an encoder-only model")
    return prefill_ops(model, dtype, batch_size, input_len)


def _check_shape(batch_size: int, length: int, beam_size: int) -> None:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if length < 1:
        raise ValueError(f"sequence length must be >= 1, got {length}")
    if beam_size < 1:
        raise ValueError(f"beam_size must be >= 1, got {beam_size}")
