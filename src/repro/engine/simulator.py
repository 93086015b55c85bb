"""End-to-end generation simulation.

Runs a workload through a deployment: one prefill step plus one decode
step per output token (context growing as the KV cache fills), with
per-token latency noise and the TEE outlier process the paper filters
with a Z-score (§III-D).  Decode-step costs are recomputed every
``context_stride`` tokens (costs vary smoothly with context length) to
keep sweeps fast; ``context_stride=1`` gives the exact per-step model.

The clean decode trajectory is one exact column pass, the one the
fleet's step-cost table uses: every costed context of the generation is
a column of the one-block twin's decode graph
(:func:`~repro.llm.graph.decode_columns`), costed in one numpy pass
(``step_cost_columns``) and finished to the full model's step one
operator row at a time (:func:`~repro.engine.roofline.one_block_step_s`).
Every value equals the scalar :func:`decode_step_cost` at its context
bit for bit; the per-token loop over that scalar path survives as the
private reference ``_decode_clean_loop``, which the parity audit and
tests compare the pass against with ``==``.

Scalar steps are costed from the same twin's 14 operators and kept as
a :class:`StepCost` with the block's repeat count, so no path builds
the flat per-layer graph.  Every step passes its host-device staging
(``gpu_io_bytes``) to the cost model, which a CPU does not charge, so
no path branches on the placement.  Only prefill step costs are
memoized; a hit is the stored :class:`StepCost`, bit-identical to a fresh one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import guards
from ..llm.graph import (
    decode_columns,
    decode_step_ops,
    graph_order,
    prefill_ops,
)
from ..llm.ops import OpColumns, Operator, Phase
from ..memo import MemoCache
from . import calibration as cal
from .placement import Deployment, Workload, weight_footprint
from .roofline import (
    CpuCostModel,
    GpuCostModel,
    StepCost,
    WorkingSets,
    cost_model_for,
    gpu_io_bytes,
    one_block_step_s,
    one_block_sums,
)
from .trace import TraceEvent, events_from_step

_PREFILL_COST_CACHE = MemoCache("prefill_step_cost", maxsize=256)


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of one simulated generation run.

    Attributes:
        workload: The workload that ran.
        backend_name: Deployment backend.
        framework_name: Deployment framework.
        prefill_s: Time of the prompt pass (first-token latency).
        decode_clean_s: Noise-free per-step decode times.
        decode_noisy_s: Per-step decode times with jitter and TEE
            outliers (what a measurement harness would observe).
        prefill_step: Costed prefill step (for traces).
        sample_decode_step: Costed mid-generation decode step.
    """

    workload: Workload
    backend_name: str
    framework_name: str
    prefill_s: float
    decode_clean_s: np.ndarray
    decode_noisy_s: np.ndarray
    prefill_step: StepCost | None
    sample_decode_step: StepCost | None

    @property
    def decode_time_s(self) -> float:
        """Total noise-free decode time."""
        return float(self.decode_clean_s.sum())

    @property
    def total_time_s(self) -> float:
        """Prefill + decode (noise-free)."""
        return self.prefill_s + self.decode_time_s

    @property
    def throughput_tok_s(self) -> float:
        """User-visible tokens per second, first token included (Fig. 12)."""
        return self.workload.user_tokens / self.total_time_s

    @property
    def decode_throughput_tok_s(self) -> float:
        """Steady-state generation throughput (Figs. 4, 9, 10)."""
        return self.workload.user_tokens / self.decode_time_s

    @property
    def next_token_latency_s(self) -> float:
        """Mean noise-free time to the next token."""
        return float(self.decode_clean_s.mean())

    @property
    def latency_samples_s(self) -> np.ndarray:
        """Observed per-token latencies (noisy; feed to metrics filters)."""
        return self.decode_noisy_s

    def decode_trace(self) -> list[TraceEvent]:
        """Trace events of the sampled decode step.

        Raises:
            ValueError: If the run was simulated without step recording.
        """
        if self.sample_decode_step is None:
            raise ValueError("run was simulated with record_steps=False")
        return events_from_step(self.sample_decode_step, Phase.DECODE)


def _working_sets(workload: Workload, deployment: Deployment,
                  context_len: int, ops: list[Operator]) -> WorkingSets:
    """Working sets of the step whose one-block twin graph is ``ops``."""
    activations = 0.0  # the full graph's, added left to right
    for op, _ in graph_order(ops, workload.model.num_layers):
        activations += op.activation_bytes
    kv_ws = (workload.sequences * context_len
             * workload.model.kv_bytes_per_token(workload.dtype.bytes))
    return WorkingSets(
        weights=weight_footprint(workload, deployment.framework),
        kv=kv_ws,
        activations=activations,
    )


def _one_block_step(workload: Workload, deployment: Deployment,
                    model: CpuCostModel | GpuCostModel | None,
                    phase: Phase, context_len: int) -> StepCost:
    """The full model's step at ``context_len``, from its one-block twin."""
    build = prefill_ops if phase is Phase.PREFILL else decode_step_ops
    ops = build(replace(workload.model, num_layers=1), workload.dtype,
                workload.batch_size, context_len, workload.beam_size)
    step = (model or cost_model_for(deployment)).step_cost(
        ops, _working_sets(workload, deployment, context_len, ops),
        workload.dtype, io_bytes=gpu_io_bytes(workload, phase))
    return replace(step, num_layers=workload.model.num_layers)


def _noise(rng: np.random.Generator, clean: np.ndarray, is_tee: bool) -> np.ndarray:
    sigma = cal.BASE_NOISE_SIGMA + (cal.TEE_NOISE_SIGMA if is_tee else 0.0)
    jitter = np.exp(rng.normal(0.0, sigma, size=clean.shape) - sigma * sigma / 2.0)
    noisy = clean * jitter
    if is_tee:
        outliers = rng.random(clean.shape) < cal.TEE_OUTLIER_PROBABILITY
        scales = 1.0 + rng.exponential(cal.TEE_OUTLIER_SCALE - 1.0,
                                       size=clean.shape)
        noisy = np.where(outliers, noisy * scales, noisy)
    return noisy


def prefill_step_cost(workload: Workload, deployment: Deployment,
                      model: CpuCostModel | GpuCostModel | None = None) -> StepCost:
    """Costed prefill step, memoized per (deployment, workload shape)."""
    key = (deployment, workload.model, workload.dtype, workload.batch_size,
           workload.input_tokens, workload.beam_size)

    def build() -> StepCost:
        return _one_block_step(workload, deployment, model, Phase.PREFILL,
                               workload.input_tokens)

    return _PREFILL_COST_CACHE.get_or_compute(key, build)


def decode_step_cost(workload: Workload, deployment: Deployment,
                     context: int,
                     model: CpuCostModel | GpuCostModel | None = None) -> StepCost:
    """Costed decode step at one context, from the one-block twin."""
    return _one_block_step(workload, deployment, model, Phase.DECODE, context)


def _decode_pass(workload: Workload, deployment: Deployment,
                 contexts: np.ndarray) -> tuple[OpColumns, WorkingSets]:
    """The one-block decode graph at every context, and its working sets.

    The working sets are :func:`_working_sets`' at each context: the KV
    cache grows with the context (one array entry per column), the
    weights are fixed, and so are the activations, summed in full-graph
    order by :func:`one_block_sums` (``engine.vectorized_working_sets``
    pins all three).
    """
    model, dtype = workload.model, workload.dtype
    columns = decode_columns(replace(model, num_layers=1), dtype,
                             np.full(contexts.shape, workload.sequences),
                             contexts)
    # A decode step's activations depend on its batch, not its context,
    # so every column holds the same total and the first serves them
    # all.  Summing the whole plane takes no more numpy calls than one
    # column, and numpy's in-place add is slowest on 1-element arrays.
    activations = one_block_sums(columns, columns.activation_bytes,
                                 model.num_layers)[0].item()
    return columns, WorkingSets(
        weights=weight_footprint(workload, deployment.framework),
        kv=(workload.sequences * contexts
            * model.kv_bytes_per_token(dtype.bytes)),
        activations=activations)


def _decode_steps_s(workload: Workload, deployment: Deployment,
                    model: CpuCostModel | GpuCostModel,
                    contexts: np.ndarray) -> list[float]:
    """Decode-step seconds at every context, from one column pass."""
    columns, sets = _decode_pass(workload, deployment, contexts)
    step = model.step_cost_columns(
        columns, sets, workload.dtype,
        io_bytes=gpu_io_bytes(workload, Phase.DECODE))
    return one_block_step_s(columns, step, workload.model.num_layers)


def _decode_clean_loop(workload: Workload, deployment: Deployment,
                       model: CpuCostModel | GpuCostModel,
                       stride: int) -> np.ndarray:
    """Clean per-token decode times via the scalar reference loop.

    Not on any production path: the reference the column pass is
    checked against (``engine.vectorized_loop_parity``).
    """
    clean = np.empty(workload.output_tokens)
    cached_step: StepCost | None = None
    for step_index in range(workload.output_tokens):
        if step_index % stride == 0 or cached_step is None:
            context = workload.input_tokens + step_index
            cached_step = decode_step_cost(workload, deployment, context,
                                           model)
        clean[step_index] = cached_step.total_s
    return clean


def simulate_generation(workload: Workload, deployment: Deployment,
                        seed: int = 0, context_stride: int | None = None,
                        record_steps: bool = False) -> GenerationResult:
    """Simulate one generation run.

    Args:
        workload: What to run.
        deployment: Where and how to run it.
        seed: Noise RNG seed.
        context_stride: Recompute decode-step cost every this many
            tokens, an int >= 1 (``None`` picks ``output_tokens // 32``,
            at least 1).
        record_steps: Keep the costed prefill and a mid-generation decode
            step for trace analysis (Fig. 7).  The sampled step is costed
            exactly at its own context without disturbing the
            stride-cadence clean trajectory, so toggling this flag never
            changes the simulated times.

    Raises:
        ValueError: If the workload cannot run on the deployment (dtype
            unsupported, model does not fit, ...), or ``context_stride``
            is not an int >= 1.
    """
    if context_stride is None:
        stride = max(1, workload.output_tokens // 32)
    else:
        guards.count("context_stride", context_stride, ge=1)
        stride = int(context_stride)
    deployment.validate_workload(workload)
    model = cost_model_for(deployment)

    prefill = prefill_step_cost(workload, deployment, model)
    # Cost the contexts input + k*stride and hold each for the following
    # stride tokens, the cadence of the reference loop.
    contexts = workload.input_tokens + np.arange(0, workload.output_tokens,
                                                 stride)
    clean = np.repeat(_decode_steps_s(workload, deployment, model, contexts),
                      stride)[:workload.output_tokens]

    sample_step: StepCost | None = None
    if record_steps:
        sample_index = workload.output_tokens // 2
        sample_step = decode_step_cost(
            workload, deployment, workload.input_tokens + sample_index, model)

    rng = np.random.default_rng(seed)
    noisy = _noise(rng, clean, deployment.backend.is_tee)
    return GenerationResult(
        workload=workload,
        backend_name=deployment.backend.name,
        framework_name=deployment.framework.name,
        prefill_s=prefill.total_s,
        decode_clean_s=clean,
        decode_noisy_s=noisy,
        prefill_step=prefill if record_steps else None,
        sample_decode_step=sample_step,
    )


def simulate_encode(workload: Workload, deployment: Deployment,
                    seed: int = 0) -> float:
    """Time one encoder (BERT-style) forward pass, noise included.

    Used by the RAG substrate for SBERT/cross-encoder scoring cost.
    """
    deployment.validate_workload(workload)
    if not workload.model.encoder_only:
        raise ValueError(f"{workload.model.name} is not an encoder-only model")
    # An encoder pass is a prefill over the prompt (see encode_ops), so
    # it shares the memoized prefill step-cost cache.
    step = prefill_step_cost(workload, deployment)
    rng = np.random.default_rng(seed)
    return float(_noise(rng, np.array([step.total_s]),
                        deployment.backend.is_tee)[0])
