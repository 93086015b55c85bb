"""Differential checks: independent code paths must agree.

Every engine and cache feature in the repository has a slower, simpler
twin: the decode column pass has the scalar reference loop, memo
caches have cold recomputation, the analytical FLOP/byte formulas have
the numpy mini-Llama that actually executes the matmuls, and the
closed-form TLB/EPC models have functional simulators.  These checks
pin each pair together so an optimization can never silently drift
from its ground truth.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..engine.roofline import CpuCostModel, cost_model_for
from ..engine.simulator import (
    _decode_clean_loop,
    _decode_pass,
    _working_sets,
    simulate_generation,
)
from ..llm.config import GPTJ_6B, LLAMA2_7B, LLAMA2_13B, LLAMA2_70B
from ..llm.datatypes import BFLOAT16, INT8
from ..llm.graph import decode_step_ops, prefill_ops
from ..llm.ops import merge_totals
from ..llm.reference import FlopRecorder, ReferenceTransformer
from ..memo import clear_all_caches
from ..memsim.epc import EpcPager, paging_fraction, paging_fraction_vec
from ..memsim.pages import PAGE_4K
from ..memsim.tlb import (
    SetAssociativeTlb,
    streaming_miss_rate,
    streaming_miss_rate_vec,
)
from ..serving.stepcost import StepCostTable
from .context import AuditContext
from .registry import CheckFailure, check


def _max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


@check("engine.vectorized_loop_parity", family="differential",
       layers=("engine", "llm"))
def vectorized_loop_parity(ctx: AuditContext) -> str:
    """The decode column pass equals the scalar reference loop exactly."""
    worst = 0.0
    for backend, gpu in (("baremetal", False), ("tdx", False),
                         ("sgx", False), (None, True)):
        deployment = ctx.gpu(confidential=True) if gpu else ctx.cpu(backend)
        for batch in (1, 8):
            workload = ctx.small_workload(batch_size=batch)
            loop = _decode_clean_loop(workload, deployment,
                                      cost_model_for(deployment), 1)
            result = ctx.simulate(workload, deployment, context_stride=1)
            worst = max(worst, _max_rel_err(result.decode_clean_s, loop))
    if worst != 0.0:
        raise CheckFailure(
            f"column pass differs from the scalar loop: max rel err "
            f"{worst:.3e}", deltas={"max_rel_err": worst})
    return f"max rel err {worst:.2e}"


@check("engine.memo_bit_identity", family="differential",
       layers=("engine", "core"))
def memo_bit_identity(ctx: AuditContext) -> str:
    """Memoized step costs are bit-identical to cold-cache recomputation."""
    workload = ctx.small_workload()
    deployment = ctx.cpu("tdx")
    clear_all_caches()
    cold = simulate_generation(workload, deployment, seed=3)
    warm = simulate_generation(workload, deployment, seed=3)
    if not np.array_equal(cold.decode_clean_s, warm.decode_clean_s):
        raise CheckFailure("warm-cache decode trajectory differs from cold")
    if cold.prefill_s != warm.prefill_s:
        raise CheckFailure("warm-cache prefill cost differs from cold")
    if not np.array_equal(cold.decode_noisy_s, warm.decode_noisy_s):
        raise CheckFailure("warm-cache noisy trajectory differs from cold")
    return "cold == warm bitwise"


@check("engine.record_steps_invariance", family="differential",
       layers=("engine",))
def record_steps_invariance(ctx: AuditContext) -> str:
    """Toggling record_steps never perturbs the simulated times."""
    workload = ctx.small_workload()
    deployment = ctx.cpu("sgx")
    plain = ctx.simulate(workload, deployment, record_steps=False)
    traced = ctx.simulate(workload, deployment, record_steps=True)
    if not np.array_equal(plain.decode_clean_s, traced.decode_clean_s):
        raise CheckFailure("record_steps=True changed the decode trajectory")
    if traced.sample_decode_step is None or traced.prefill_step is None:
        raise CheckFailure("record_steps=True did not record steps")
    return "trajectories identical"


@check("engine.stride_subsampling_exact", family="differential",
       layers=("engine",))
def stride_subsampling_exact(ctx: AuditContext) -> str:
    """Strided decode costs equal the exact loop at every costed context."""
    workload = ctx.small_workload(output_tokens=32)
    deployment = ctx.cpu("tdx")
    exact = ctx.simulate(workload, deployment, context_stride=1)
    stride = 8
    coarse = ctx.simulate(workload, deployment, context_stride=stride)
    costed = np.arange(0, workload.output_tokens, stride)
    if not np.array_equal(coarse.decode_clean_s[costed],
                          exact.decode_clean_s[costed]):
        raise CheckFailure(
            f"stride={stride} trajectory differs from exact at its own "
            f"costed contexts")
    return f"stride={stride} exact at {len(costed)} costed contexts"


def prefill_crossings(table: StepCostTable) -> dict[str, float]:
    """Prompt lengths (real-valued) where a CPU cost-model threshold flips.

    The kv working set crosses the LLC's effective capacity (``llc``),
    a page size's per-core TLB reach (``tlb_<page bytes>``) or the SGX
    EPC (``epc``).  GPU tables have none.
    """
    model = table._cost_model
    if not isinstance(model, CpuCostModel):
        return {}
    per_token = table.model.kv_bytes_per_token(table.dtype.bytes)
    crossings = {"llc": model.llc.effective_capacity / per_token}
    cores = max(1, model.placement.cores)
    for page_bytes, fraction in model._page_mix():
        reach = model.cpu.tlb.entries_for(page_bytes) * page_bytes
        crossings[f"tlb_{page_bytes}"] = reach * cores / (fraction
                                                          * per_token)
    if model.profile.epc_limited:
        fixed = table.working_sets(1, 0)
        crossings["epc"] = (model._epc_bytes() - fixed.weights
                            - fixed.activations) / per_token
    return crossings


def prefill_threshold_lengths(table: StepCostTable) -> list[int]:
    """Whole prompt lengths around each crossing, within the model."""
    lengths = set()
    for crossing in prefill_crossings(table).values():
        base = int(crossing)
        lengths.update(range(base - 1, base + 3))
    top = table.model.max_position
    return sorted(length for length in lengths if 1 <= length <= top)


@check("serving.stepcost_graph_parity", family="differential",
       layers=("serving", "engine", "llm"))
def stepcost_graph_parity(ctx: AuditContext) -> str:
    """One-block StepCostTable misses equal full-graph step_cost bitwise.

    Prefill is checked twice per prompt: one-length misses
    (``prefill_s``) and one column over every prompt (``row_prefill``)
    on a second fresh table.  The prompts include each table's
    threshold lengths, where an LLC, TLB or EPC ``<=`` test flips.
    Decode shapes straddle the table's tile edges (batches 16/17 and
    32/33, buckets 4032/4096) and sit on both sides of bucket 1024.
    Half of them are read from a second table in reverse order, so
    their tiles were costed by a different first miss than the other
    half's.
    """
    deployments = (("baremetal", ctx.cpu("baremetal")), ("tdx", ctx.cpu("tdx")),
                   ("sgx", ctx.cpu("sgx")), ("cgpu", ctx.gpu(confidential=True)))
    base_prompts = (1, 2, 15, 16, 17, 127, 1024, 4095)
    decode_shapes = [(batch, bucket) for batch in (1, 16, 17, 32, 33, 64)
                     for bucket in (16, 960, 1024, 4032, 4096)]
    checked = 0
    for label, deployment in deployments:
        cost_model = cost_model_for(deployment)
        for model in (LLAMA2_7B, LLAMA2_13B, LLAMA2_70B, GPTJ_6B):
            for dtype in (BFLOAT16, INT8):
                table = StepCostTable(deployment, model, dtype)
                prompts = sorted(set(base_prompts).union(
                    prefill_threshold_lengths(table)))
                column, _ = StepCostTable(deployment, model,
                                          dtype).row_prefill(prompts)
                cases = []
                for prompt, from_column in zip(prompts, column):
                    want = cost_model.step_cost(
                        prefill_ops(model, dtype, 1, prompt),
                        table.working_sets(1, prompt), dtype).total_s
                    cases += [("prefill", prompt, table.prefill_s(prompt),
                               want),
                              ("prefill column", prompt, from_column, want)]
                other = StepCostTable(deployment, model, dtype)
                reads = ([(table, shape) for shape in decode_shapes[::2]]
                         + [(other, shape)
                            for shape in decode_shapes[1::2][::-1]])
                cases += [("decode", (batch, bucket),
                           reader.decode_step_s(batch, bucket),
                           cost_model.step_cost(
                               decode_step_ops(model, dtype, batch, bucket),
                               table.working_sets(batch, bucket),
                               dtype).total_s)
                          for reader, (batch, bucket) in reads]
                for kind, shape, got, want in cases:
                    if got != want:
                        raise CheckFailure(
                            f"{label}/{model.name}/{dtype.name} {kind} "
                            f"{shape}: table {got.hex()} != full graph "
                            f"{want.hex()}",
                            deltas={"rel_err": abs(got - want) / want})
                    checked += 1
    return f"{checked} step costs bit-identical to full-graph costing"


@check("llm.prefill_flops_vs_reference", family="differential",
       layers=("llm",))
def prefill_flops_vs_reference(ctx: AuditContext) -> str:
    """Analytical prefill GEMM FLOPs match the executed numpy pass."""
    config = ctx.tiny_model()
    reference = ReferenceTransformer(config, seed=0)
    batch, seq = 2, 16
    rng = np.random.default_rng(0)
    ids = rng.integers(0, config.vocab_size, size=(batch, seq))
    recorder = FlopRecorder()
    reference.forward(ids, recorder=recorder)

    analytical: dict[str, float] = {}
    for op in prefill_ops(config, ctx.dtype, batch, seq):
        analytical[op.name] = analytical.get(op.name, 0.0) + op.flops

    for name in ("qkv_proj", "o_proj", "gate_up_proj", "down_proj"):
        rel = abs(analytical[name] - recorder.counts[name]) \
            / recorder.counts[name]
        if rel > ctx.tol.flops_gemm_rel:
            raise CheckFailure(
                f"{name}: analytical {analytical[name]:.3e} vs recorded "
                f"{recorder.counts[name]:.3e} (rel {rel:.2e})",
                deltas={"rel_err": rel})
    # The analytical head costs logits for the last position only; the
    # reference computes logits for every prompt position.
    head_rel = abs(analytical["lm_head"] * seq - recorder.counts["lm_head"]) \
        / recorder.counts["lm_head"]
    if head_rel > ctx.tol.flops_gemm_rel:
        raise CheckFailure(f"lm_head per-token FLOPs differ (rel {head_rel:.2e})")
    # Causal-aware analytical attention ~= half the dense reference matmul.
    ratio = analytical["self_attention"] / recorder.counts["self_attention"]
    lo, hi = ctx.tol.attention_ratio_band
    if not lo <= ratio <= hi:
        raise CheckFailure(
            f"prefill attention ratio {ratio:.3f} outside [{lo}, {hi}]",
            deltas={"ratio": ratio})
    return f"GEMMs exact, attention ratio {ratio:.3f}"


@check("llm.decode_flops_vs_reference", family="differential",
       layers=("llm",))
def decode_flops_vs_reference(ctx: AuditContext) -> str:
    """Analytical decode-step FLOPs match an executed cached decode step."""
    config = ctx.tiny_model()
    reference = ReferenceTransformer(config, seed=0)
    batch, prompt_len = 2, 12
    rng = np.random.default_rng(1)
    cache = reference.new_cache()
    reference.forward(rng.integers(0, config.vocab_size,
                                   size=(batch, prompt_len)), cache)
    recorder = FlopRecorder()
    reference.forward(rng.integers(0, config.vocab_size, size=(batch, 1)),
                      cache, recorder=recorder)

    context = prompt_len + 1
    analytical: dict[str, float] = {}
    for op in decode_step_ops(config, ctx.dtype, batch, context):
        analytical[op.name] = analytical.get(op.name, 0.0) + op.flops

    for name in ("qkv_proj", "o_proj", "gate_up_proj", "down_proj",
                 "lm_head"):
        rel = abs(analytical[name] - recorder.counts[name]) \
            / recorder.counts[name]
        if rel > ctx.tol.flops_gemm_rel:
            raise CheckFailure(
                f"{name}: analytical {analytical[name]:.3e} vs recorded "
                f"{recorder.counts[name]:.3e} (rel {rel:.2e})",
                deltas={"rel_err": rel})
    # Decode attends the full context in both paths; the analytical op
    # additionally carries the (small) softmax FLOP term.
    ratio = analytical["self_attention"] / recorder.counts["self_attention"]
    if not 0.95 <= ratio <= 1.25:
        raise CheckFailure(
            f"decode attention ratio {ratio:.3f} outside [0.95, 1.25]",
            deltas={"ratio": ratio})
    return f"GEMMs exact, attention ratio {ratio:.3f}"


@check("engine.vectorized_working_sets", family="differential",
       layers=("engine", "llm"))
def vectorized_working_sets(ctx: AuditContext) -> str:
    """The decode column pass's working sets equal the scalar ones
    (and its activations the flat per-layer graph's)."""
    workload = ctx.small_workload(batch_size=4)
    deployment = ctx.cpu("tdx")
    contexts = np.array([64, 256, 1024])
    _, column_sets = _decode_pass(workload, deployment, contexts)
    twin = replace(workload.model, num_layers=1)
    for position, context in enumerate(contexts.tolist()):
        shape = (workload.dtype, workload.batch_size, context,
                 workload.beam_size)
        scalar = _working_sets(workload, deployment, context,
                               decode_step_ops(twin, *shape))
        flat = merge_totals(decode_step_ops(workload.model, *shape))
        for name, got, want in (
                ("kv", column_sets.kv[position], scalar.kv),
                ("activations", column_sets.activations,
                 scalar.activations),
                ("flat-graph activations", scalar.activations,
                 flat["activation_bytes"]),
                ("weights", column_sets.weights, scalar.weights)):
            if got != want:
                raise CheckFailure(
                    f"{name} differs at context {context}: {got!r} vs "
                    f"{want!r}", deltas={"got": float(got),
                                         "want": float(want)})
    return f"kv/activations/weights identical at {len(contexts)} contexts"


@check("memsim.tlb_closed_form_lower_bound", family="differential",
       layers=("memsim",))
def tlb_closed_form_lower_bound(ctx: AuditContext) -> str:
    """Functional LRU TLB misses at least the closed-form streaming rate."""
    entries, ways, page = 64, 4, PAGE_4K
    reach = entries * page
    margins = []
    for factor in (2, 4):
        tlb = SetAssociativeTlb(entries=entries, ways=ways, page_bytes=page)
        working_set = factor * reach
        for _ in range(3):
            tlb.access_range(0, working_set, stride=page)
        closed = streaming_miss_rate(working_set, page, entries)
        if tlb.miss_rate + 1e-12 < closed:
            raise CheckFailure(
                f"measured miss rate {tlb.miss_rate:.4f} below closed form "
                f"{closed:.4f} at ws={factor}x reach",
                deltas={"measured": tlb.miss_rate, "closed_form": closed})
        margins.append(tlb.miss_rate - closed)
    return f"LRU >= closed form (margins {', '.join(f'{m:.3f}' for m in margins)})"


@check("memsim.epc_closed_form_lower_bound", family="differential",
       layers=("memsim",))
def epc_closed_form_lower_bound(ctx: AuditContext) -> str:
    """Functional EPC pager faults at least the closed-form fraction."""
    epc_pages = 32
    pager = EpcPager(epc_bytes=epc_pages * PAGE_4K)
    working_set = 2 * epc_pages * PAGE_4K
    for _ in range(3):
        pager.touch_range(0, working_set)
    closed = paging_fraction(working_set, epc_pages * PAGE_4K)
    if pager.fault_rate + 1e-12 < closed:
        raise CheckFailure(
            f"pager fault rate {pager.fault_rate:.4f} below closed form "
            f"{closed:.4f}",
            deltas={"measured": pager.fault_rate, "closed_form": closed})
    return f"fault rate {pager.fault_rate:.3f} >= closed form {closed:.3f}"


@check("memsim.vectorized_twins_bitwise", family="differential",
       layers=("memsim", "engine"))
def vectorized_twins_bitwise(ctx: AuditContext) -> str:
    """Array twins of the TLB/EPC closed forms equal the scalar versions."""
    working_sets = np.array([0.0, 1e6, 64e6, 256e6, 1e9, 64e9])
    entries, page = 1024, PAGE_4K
    vec_tlb = streaming_miss_rate_vec(working_sets, page, entries)
    vec_epc = paging_fraction_vec(working_sets, 128e6)
    for position, ws in enumerate(working_sets):
        scalar_tlb = streaming_miss_rate(float(ws), page, entries)
        scalar_epc = paging_fraction(float(ws), 128e6)
        if vec_tlb[position] != scalar_tlb or vec_epc[position] != scalar_epc:
            raise CheckFailure(
                f"vectorized twin differs from scalar at ws={ws:.0f}")
    return f"bitwise equal over {len(working_sets)} working sets"
