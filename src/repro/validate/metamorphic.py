"""Metamorphic and monotonicity checks: directional invariants.

The paper's mechanisms imply directional relations that must hold for
*any* calibration: more context, batch or input can never make a step
cheaper; a TEE can never be faster than bare metal on the same silicon;
bigger pages can never miss the TLB more; a working set inside the
EPC never pages; the vLLM-style scheduler conserves requests and KV
blocks.  These checks encode those relations so calibration tweaks and
refactors cannot invert the physics.
"""

from __future__ import annotations

import numpy as np

from ..engine.roofline import cost_model_for
from ..engine.simulator import (
    _decode_steps_s,
    decode_step_cost,
    prefill_step_cost,
)
from ..llm.datatypes import INT8
from ..llm.kvcache import PagedKVCache
from ..memsim.epc import paging_overhead_s
from ..memsim.pages import PAGE_1G, PAGE_2M, PAGE_4K
from ..memsim.tlb import WalkModel, streaming_miss_rate, translation_time
from .context import AuditContext
from .registry import CheckFailure, check

_PAGE_SIZES = (PAGE_4K, PAGE_2M, PAGE_1G)


def _assert_monotonic(values: list[float], label: str, slack_rel: float,
                      decreasing: bool = False) -> None:
    for earlier, later in zip(values, values[1:]):
        slack = slack_rel * abs(earlier)
        violated = (later < earlier - slack if not decreasing
                    else later > earlier + slack)
        if violated:
            direction = "non-increasing" if decreasing else "non-decreasing"
            raise CheckFailure(
                f"{label} not {direction}: {earlier:.6e} -> {later:.6e}",
                deltas={"earlier": earlier, "later": later})


@check("engine.decode_cost_monotonic_context", family="metamorphic",
       layers=("engine",))
def decode_cost_monotonic_context(ctx: AuditContext) -> str:
    """Decode-step cost is non-decreasing in attended context length."""
    contexts = np.array([64, 128, 256, 512, 1024, 2048, 4096])
    for deployment in (ctx.cpu("baremetal"), ctx.cpu("tdx"), ctx.cpu("sgx"),
                       ctx.gpu(confidential=True)):
        costs = _decode_steps_s(ctx.small_workload(), deployment,
                                cost_model_for(deployment), contexts)
        _assert_monotonic(costs,
                          f"{deployment.backend.name} decode cost vs context",
                          ctx.tol.monotonic_slack_rel)
    return f"4 deployments x {len(contexts)} contexts"


@check("engine.decode_cost_monotonic_batch", family="metamorphic",
       layers=("engine",))
def decode_cost_monotonic_batch(ctx: AuditContext) -> str:
    """Decode-step cost is non-decreasing in batch size."""
    for backend in ("baremetal", "tdx"):
        deployment = ctx.cpu(backend)
        costs = [
            decode_step_cost(ctx.small_workload(batch_size=batch),
                             deployment, context=512).total_s
            for batch in (1, 2, 4, 8, 16, 64)
        ]
        _assert_monotonic(costs, f"{backend} decode cost vs batch",
                          ctx.tol.monotonic_slack_rel)
    return "batch 1..64 on baremetal and tdx"


@check("engine.prefill_cost_monotonic_input", family="metamorphic",
       layers=("engine",))
def prefill_cost_monotonic_input(ctx: AuditContext) -> str:
    """Prefill cost is non-decreasing in prompt length."""
    for backend in ("baremetal", "tdx"):
        deployment = ctx.cpu(backend)
        costs = [
            prefill_step_cost(ctx.small_workload(input_tokens=length),
                              deployment).total_s
            for length in (64, 128, 256, 512, 1024, 2048)
        ]
        _assert_monotonic(costs, f"{backend} prefill cost vs input",
                          ctx.tol.monotonic_slack_rel)
    return "input 64..2048 on baremetal and tdx"


@check("tee.cpu_overhead_nonnegative", family="metamorphic",
       layers=("tee", "engine"))
def cpu_overhead_nonnegative(ctx: AuditContext) -> str:
    """CPU TEEs and VMs are never faster than bare metal (equal config)."""
    workload = ctx.small_workload()
    base = ctx.simulate(workload, ctx.cpu("baremetal"))
    overheads = {}
    for backend in ("vm", "tdx", "sgx"):
        result = ctx.simulate(workload, ctx.cpu(backend))
        if result.decode_time_s < base.decode_time_s * (1.0 - 1e-12):
            raise CheckFailure(
                f"{backend} decode {result.decode_time_s:.6e}s faster than "
                f"baremetal {base.decode_time_s:.6e}s")
        if result.prefill_s < base.prefill_s * (1.0 - 1e-12):
            raise CheckFailure(f"{backend} prefill faster than baremetal")
        overheads[backend] = result.decode_time_s / base.decode_time_s - 1.0
    detail = ", ".join(f"{name} +{value:.1%}"
                       for name, value in overheads.items())
    return detail


@check("tee.gpu_overhead_nonnegative", family="metamorphic",
       layers=("tee", "engine"))
def gpu_overhead_nonnegative(ctx: AuditContext) -> str:
    """Confidential GPU mode is never faster than the raw GPU."""
    workload = ctx.small_workload(batch_size=4)
    raw = ctx.simulate(workload, ctx.gpu(confidential=False))
    confidential = ctx.simulate(workload, ctx.gpu(confidential=True))
    if confidential.total_time_s < raw.total_time_s * (1.0 - 1e-12):
        raise CheckFailure(
            f"cGPU total {confidential.total_time_s:.6e}s faster than GPU "
            f"{raw.total_time_s:.6e}s")
    overhead = confidential.total_time_s / raw.total_time_s - 1.0
    return f"cgpu +{overhead:.1%} over gpu"


@check("tee.amx_off_never_faster", family="metamorphic",
       layers=("tee", "engine", "hardware"))
def amx_off_never_faster(ctx: AuditContext) -> str:
    """Disabling AMX never speeds up decode."""
    workload = ctx.small_workload(batch_size=16)
    with_amx = ctx.simulate(workload, ctx.cpu("vm"))
    without = ctx.simulate(workload, ctx.cpu("vm", amx_enabled=False))
    if without.decode_time_s < with_amx.decode_time_s * (1.0 - 1e-12):
        raise CheckFailure("AMX-off decode faster than AMX-on")
    ratio = without.decode_time_s / with_amx.decode_time_s
    return f"no-AMX {ratio:.2f}x AMX decode time"


@check("engine.more_cores_never_slower", family="metamorphic",
       layers=("engine", "hardware"))
def more_cores_never_slower(ctx: AuditContext) -> str:
    """Noise-free decode time is non-increasing in core count."""
    workload = ctx.small_workload(batch_size=8)
    for backend in ("baremetal", "tdx"):
        times = [
            ctx.simulate(workload, ctx.cpu(
                backend, cores_per_socket_used=cores)).decode_time_s
            for cores in (8, 16, 32, 56)
        ]
        _assert_monotonic(times, f"{backend} decode time vs cores",
                          ctx.tol.monotonic_slack_rel, decreasing=True)
    return "cores 8..56 on baremetal and tdx"


@check("llm.int8_never_slower_than_bf16", family="metamorphic",
       layers=("llm", "engine"))
def int8_never_slower_than_bf16(ctx: AuditContext) -> str:
    """Weight-only int8 decode is never slower than bf16 (half traffic)."""
    deployment = ctx.cpu("baremetal")
    bf16 = ctx.simulate(ctx.small_workload(), deployment)
    int8 = ctx.simulate(ctx.small_workload(dtype=INT8), deployment)
    if int8.decode_time_s > bf16.decode_time_s * (1.0 + 1e-12):
        raise CheckFailure(
            f"int8 decode {int8.decode_time_s:.6e}s slower than bf16 "
            f"{bf16.decode_time_s:.6e}s")
    return f"int8 {bf16.decode_time_s / int8.decode_time_s:.2f}x faster"


@check("engine.noise_positive_tee_heavier", family="metamorphic",
       layers=("engine", "tee"), severity="warn")
def noise_positive_tee_heavier(ctx: AuditContext) -> str:
    """Observed latencies stay positive; TEE jitter exceeds bare metal.

    Deterministic for a fixed seed, but the dispersion comparison rests
    on the calibrated noise process rather than closed-form algebra, so
    the check carries ``warn`` severity.
    """
    workload = ctx.small_workload(output_tokens=128)
    base = ctx.simulate(workload, ctx.cpu("baremetal"), seed=11)
    tee = ctx.simulate(workload, ctx.cpu("tdx"), seed=11)
    for label, result in (("baremetal", base), ("tdx", tee)):
        samples = result.decode_noisy_s
        if not np.all(np.isfinite(samples)) or np.any(samples <= 0):
            raise CheckFailure(f"{label} noisy latencies not positive finite")
    base_cv = float(np.std(base.decode_noisy_s / base.decode_clean_s))
    tee_cv = float(np.std(tee.decode_noisy_s / tee.decode_clean_s))
    if tee_cv < base_cv:
        raise CheckFailure(
            f"TDX jitter CV {tee_cv:.4f} below baremetal {base_cv:.4f}",
            deltas={"tee_cv": tee_cv, "base_cv": base_cv})
    return f"CV baremetal {base_cv:.4f} <= tdx {tee_cv:.4f}"


@check("memsim.tlb_miss_monotonic_page_size", family="metamorphic",
       layers=("memsim",))
def tlb_miss_monotonic_page_size(ctx: AuditContext) -> str:
    """Streaming TLB miss rate is non-increasing as pages grow."""
    for working_set in (1e6, 100e6, 10e9, 1e12):
        rates = [streaming_miss_rate(working_set, page, 1024)
                 for page in _PAGE_SIZES]
        _assert_monotonic(rates, f"miss rate vs page size at ws={working_set:.0e}",
                          0.0, decreasing=True)
    return "4 working sets x 3 page sizes"


@check("memsim.tlb_zero_when_fits", family="metamorphic",
       layers=("memsim",))
def tlb_zero_when_fits(ctx: AuditContext) -> str:
    """No streaming TLB misses while the set fits the TLB reach."""
    entries = 1024
    for page in _PAGE_SIZES:
        reach = entries * page
        if streaming_miss_rate(reach, page, entries) != 0.0:
            raise CheckFailure(f"miss rate nonzero at ws == reach ({page} pages)")
        if streaming_miss_rate(2 * reach, page, entries) <= 0.0:
            raise CheckFailure(f"miss rate zero at ws == 2x reach ({page} pages)")
    return "zero inside reach, positive beyond, all page sizes"


@check("memsim.epc_paging_zero_when_fits", family="metamorphic",
       layers=("memsim",))
def epc_paging_zero_when_fits(ctx: AuditContext) -> str:
    """EPC paging cost is zero iff the working set fits the EPC."""
    epc = 128e9
    if paging_overhead_s(1e9, working_set_bytes=epc, epc_bytes=epc) != 0.0:
        raise CheckFailure("paging cost nonzero with working set == EPC")
    beyond = paging_overhead_s(1e9, working_set_bytes=2 * epc, epc_bytes=epc)
    if beyond <= 0.0:
        raise CheckFailure("paging cost zero with working set == 2x EPC")
    return f"0 at fit, {beyond * 1e3:.1f} ms/GB beyond"


@check("memsim.translation_time_monotonic_pages", family="metamorphic",
       layers=("memsim",))
def translation_time_monotonic_pages(ctx: AuditContext) -> str:
    """Page-walk time is non-increasing as the backing page size grows."""
    walk = WalkModel(native_walk_s=20e-9, nested_multiplier=3.0)
    streamed, entries = 64e9, 1024
    times = []
    for page in _PAGE_SIZES:
        miss = streaming_miss_rate(200e9, page, entries)
        times.append(translation_time(streamed, page, miss, walk))
    _assert_monotonic(times, "translation time vs page size", 0.0,
                      decreasing=True)
    return " -> ".join(f"{t * 1e3:.2f}ms" for t in times)


@check("serving.scheduler_conservation", family="metamorphic",
       layers=("serving", "llm"))
def scheduler_conservation(ctx: AuditContext) -> str:
    """The serving loop conserves requests and KV blocks end to end."""
    requests, scheduler, report = ctx.serve_state()
    if len(report.outcomes) != len(requests):
        raise CheckFailure(
            f"{len(requests)} admitted but {len(report.outcomes)} outcomes")
    if report.total_preemptions != sum(o.preemptions
                                       for o in report.outcomes):
        raise CheckFailure("global preemption count != per-request sum")
    if report.total_preemptions == 0:
        raise CheckFailure(
            "stress stream caused no preemptions; check is not exercising "
            "the recompute path (grow the load or shrink the pool)")
    for outcome in report.outcomes:
        # makespan is measured from the first arrival, so the absolute
        # end of the serving window is start_s + makespan_s.
        if not (outcome.request.arrival_s <= outcome.first_token_s
                <= outcome.finish_s <= report.end_s):
            raise CheckFailure(
                f"request {outcome.request.request_id} lifecycle disordered")
    if scheduler.kv_free_fraction != 1.0:
        raise CheckFailure(
            f"KV blocks leaked: only {scheduler.kv_free_fraction:.1%} of "
            f"the pool free after the stream drained")
    return (f"{len(requests)} requests, {report.total_preemptions} "
            f"preemptions, pool drained")


@check("serving.kv_block_conservation", family="metamorphic",
       layers=("serving", "llm"))
def kv_block_conservation(ctx: AuditContext) -> str:
    """Paged-KV block accounting holds under a scripted op sequence."""
    cache = PagedKVCache(num_blocks=64, block_size=16)
    rng = np.random.default_rng(5)
    live: set[int] = set()
    next_id = 0
    for _ in range(400):
        action = rng.integers(0, 3)
        try:
            if action == 0 or not live:
                cache.allocate(next_id, int(rng.integers(0, 48)))
                live.add(next_id)
                next_id += 1
            elif action == 1:
                cache.append_token(int(rng.choice(sorted(live))))
            else:
                victim = int(rng.choice(sorted(live)))
                cache.free(victim)
                live.discard(victim)
        except MemoryError:
            if live:
                victim = sorted(live)[0]
                cache.free(victim)
                live.discard(victim)
        if cache.free_blocks + cache.allocated_blocks != cache.num_blocks:
            raise CheckFailure("free + allocated != total blocks")
        owned = [block for seq in live for block in cache.block_table(seq)]
        if len(owned) != len(set(owned)):
            raise CheckFailure("a block is owned by two sequences")
        if not 0.0 <= cache.utilization() <= 1.0:
            raise CheckFailure(f"utilization {cache.utilization()} outside [0, 1]")
    return f"400 ops, {len(live)} sequences live at end, accounting exact"


@check("serving.percentiles_ordered", family="metamorphic",
       layers=("serving", "core"))
def percentiles_ordered(ctx: AuditContext) -> str:
    """Latency percentiles are ordered and throughput is positive."""
    report = ctx.serve()
    for metric in (report.ttft_percentile, report.e2e_percentile):
        p50, p90, p99 = metric(50), metric(90), metric(99)
        if not p50 <= p90 <= p99:
            raise CheckFailure(
                f"percentiles disordered: p50={p50:.3f} p90={p90:.3f} "
                f"p99={p99:.3f}")
    if report.throughput_tok_s <= 0:
        raise CheckFailure("serving throughput not positive")
    return (f"ttft p50 {report.ttft_percentile(50):.2f}s, "
            f"tput {report.throughput_tok_s:.0f} tok/s")


@check("serving.tee_never_faster_makespan", family="metamorphic",
       layers=("serving", "tee"))
def tee_never_faster_makespan(ctx: AuditContext) -> str:
    """Serving the same stream under TDX never shortens the makespan."""
    base = ctx.serve(backend="baremetal")
    tee = ctx.serve(backend="tdx")
    if tee.makespan_s < base.makespan_s * (1.0 - 1e-12):
        raise CheckFailure(
            f"TDX makespan {tee.makespan_s:.3f}s beat baremetal "
            f"{base.makespan_s:.3f}s")
    return f"tdx +{tee.makespan_s / base.makespan_s - 1.0:.1%} makespan"
