"""Simulator performance benchmark: hot paths, caches, suite wall-clock.

Times the simulator's hot paths (cold vs. warm, the decode column pass
vs. the scalar reference loop, a representative sweep), collects the
memo-cache counters from ``repro.core.profiling``, and optionally times
the tier-1 test suite against a wall-clock budget.  Results are written
as JSON so the numbers can be committed (``BENCH_sim.json``) and
compared across PRs.

Usage::

    PYTHONPATH=src python scripts/bench.py                 # micro benches
    PYTHONPATH=src python scripts/bench.py --quick         # skip fleet streams
    PYTHONPATH=src python scripts/bench.py --suite         # + pytest timing
    PYTHONPATH=src python scripts/bench.py --suite --budget-s 40
    PYTHONPATH=src python scripts/bench.py --out BENCH_sim.json
    PYTHONPATH=src python scripts/bench.py --compare BENCH_sim.json

With ``--budget-s`` the script exits non-zero when the suite exceeds the
budget — CI uses this to fail if the suite regresses past 2x the
post-optimization baseline.  ``--compare`` gates the fleet headline
(``fleet_1M_req``): the run fails if its median over three runs
regresses more than 25% past the committed baseline.  The gate reads
reference-host seconds (``ref_s``), not wall seconds: every fleet
stream is timed under perfbench's host-speed sampler
(``perfbench/hostspeed.py``), which rescales each run by how fast a
fixed probe kernel ran meanwhile, so a slow shared host does not read
as slow code.
``fleet_sparse_100k_req`` (the same fleet and stream seed at 0.5 req/s,
where most ticks are jumped) and ``fleet_wide_256`` (the sparse load
per replica on a 256-replica fleet, where a loop that pays per replica
per tick would show) are recorded beside it, ungated, as is
``fleet_cost_slo_backlog`` (3 TDX + 1 cGPU behind the cost/SLO router
at 100 req/s of 1k-token prompts, 4,000 requests, with the per-request
median reference-host time of the same run cut to 1,000 requests:
routing that rescans the backlog would show as a ratio well above 1).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.core.experiment import cpu_deployment, gpu_deployment
from repro.core.profiling import cache_stats, reset_caches
from repro.core.sweep import sweep_workload
from repro.engine.placement import Workload
from repro.engine.roofline import cost_model_for
from repro.engine.simulator import _decode_clean_loop, simulate_generation
from repro.llm.config import LLAMA2_7B
from repro.llm.datatypes import BFLOAT16

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

from perfbench.hostspeed import HostSpeed  # noqa: E402

WORKLOAD = Workload(LLAMA2_7B, BFLOAT16, batch_size=4, input_tokens=128,
                    output_tokens=128)
DEPLOYMENTS = {
    "baremetal": cpu_deployment("baremetal", sockets_used=1),
    "tdx": cpu_deployment("tdx", sockets_used=1),
    "sgx": cpu_deployment("sgx", sockets_used=1),
    "cgpu": gpu_deployment(confidential=True),
}


def _time(func, repeats: int = 5, setup=None) -> dict:
    samples = []
    for _ in range(repeats):
        if setup is not None:
            setup()
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    return {
        "best_s": min(samples),
        "mean_s": statistics.fmean(samples),
        "repeats": repeats,
    }


def micro_benchmarks() -> dict:
    tdx = DEPLOYMENTS["tdx"]
    results = {}

    # Cold: every graph and step cost built from scratch.
    reset_caches()
    start = time.perf_counter()
    simulate_generation(WORKLOAD, tdx)
    results["simulate_7b_cold"] = {"best_s": time.perf_counter() - start,
                                   "repeats": 1}

    # Warm: the prefill step comes out of the caches; the decode
    # trajectory is one column pass per call.
    results["simulate_7b_warm"] = _time(
        lambda: simulate_generation(WORKLOAD, tdx))

    # The decode column pass against the private scalar reference loop
    # at exact stride-1 resolution (bit-identical); the loop entry
    # times the clean decode trajectory only.  Both start every repeat
    # from empty caches (cleared outside the timed region): a warm
    # repeat of the loop reads every step cost from the memo and would
    # time lookups, not costing.
    results["decode_vectorized_stride1"] = _time(
        lambda: simulate_generation(WORKLOAD, tdx, context_stride=1),
        setup=reset_caches)
    results["decode_loop_stride1"] = _time(
        lambda: _decode_clean_loop(WORKLOAD, tdx, cost_model_for(tdx), 1),
        repeats=3, setup=reset_caches)

    # A figure-style batch sweep (warm caches).  The figure benchmarks
    # themselves call simulate_generation through
    # benchmarks/helpers.simulate_cached, not core.sweep.
    results["sweep_batch_4pts"] = _time(
        lambda: sweep_workload("bench", WORKLOAD, DEPLOYMENTS, "batch_size",
                               [1, 4, 16, 64]), repeats=3)

    # Op-graph/roofline costing: every prompt length 1..4096 through
    # row_prefill on fresh (cold) TDX and cGPU step-cost tables, the
    # column a fleet builds at bind.
    from repro.fleet import fixed_fleet, poisson_table, replica_spec
    from repro.serving.stepcost import StepCostTable
    prompt_lengths = list(range(1, 4097))

    def prefill_column_cold() -> None:
        for kind in ("tdx", "cgpu"):
            spec = replica_spec(kind)
            StepCostTable(spec.deployment, spec.model,
                          spec.dtype).row_prefill(prompt_lengths)
    results["stepcost_prefill_column_cold"] = _time(prefill_column_cold,
                                                    repeats=3)

    # Decode step costing: every batch 1..32 at contexts 16..4096 (one
    # per 64-token bucket) through decode_step_s on fresh TDX and cGPU
    # tables, the shapes a fleet's decode runs look up.
    decode_shapes = [(batch, context) for batch in range(1, 33)
                     for context in range(16, 4097, 64)]

    def decode_tiles_cold() -> None:
        for kind in ("tdx", "cgpu"):
            spec = replica_spec(kind)
            table = StepCostTable(spec.deployment, spec.model, spec.dtype)
            for batch, context in decode_shapes:
                table.decode_step_s(batch, context)
    results["stepcost_decode_tiles_cold"] = _time(decode_tiles_cold,
                                                  repeats=3)

    # Fleet smoke: a 2-replica TDX fleet serving a 40-request stream
    # through the shared-clock event loop (routing + stepped replicas).
    fleet_stream = poisson_table(40, rate_per_s=4.0, mean_prompt=128,
                                 mean_output=32, seed=11)
    fleet_spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
    results["fleet_2x_tdx_40req"] = _time(
        lambda: fixed_fleet(fleet_spec, 2).run(fleet_stream), repeats=3)

    # Chaos smoke: the same fleet under a hazard-rate fault schedule
    # with timeout/retry recovery — the injector + resilience overhead
    # on top of the plain event loop.
    from repro.faults import RetryPolicy, mtbf_schedule
    chaos_schedule = mtbf_schedule([0, 1], mtbf_s=8.0, horizon_s=20.0,
                                   seed=5)
    results["fleet_2x_tdx_40req_chaos"] = _time(
        lambda: fixed_fleet(
            fleet_spec, 2, faults=chaos_schedule,
            retry_policy=RetryPolicy(timeout_s=15.0, max_attempts=3,
                                     seed=5)).run(fleet_stream), repeats=3)

    # Tenancy smoke: the whale-dominated tenant mix under WFQ with
    # prefix sharing — the multi-tenant plane's overhead (tagged
    # admission + per-tenant breakdown) on top of the plain fleet.
    from repro.tenancy import run_tenant_fleet, whale_mix
    tenant_population = whale_mix(total_requests=40, rate_per_s=6.0, seed=3,
                                  prefix_tokens=64)
    results["fleet_tenant_mix"] = _time(
        lambda: run_tenant_fleet(tenant_population, kind="tdx", count=2,
                                 admission="wfq",
                                 kv_isolation="shared-prefix", max_batch=16,
                                 kv_capacity_tokens=65536), repeats=3)

    # Boot smoke: the same fleet with the phased confidential cold
    # start armed — every replica walks provision → attest → key
    # release → decrypt → load before serving, and crash recoveries
    # re-enter at attestation.  Measures the boot-lifecycle overhead
    # (phase arithmetic + longer simulated horizon) on the chaos fleet.
    from repro.tee.boot import boot_profile
    boot_spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536,
                             boot=boot_profile("tdx"))
    results["fleet_2x_tdx_40req_phased_boot"] = _time(
        lambda: fixed_fleet(
            boot_spec, 2, faults=chaos_schedule,
            retry_policy=RetryPolicy(timeout_s=15.0, max_attempts=3,
                                     seed=5)).run(fleet_stream), repeats=3)
    return results


#: How many times each fleet stream benchmark serves its stream; its
#: ``wall_s`` (the figure the --compare gate reads) is their median.
FLEET_REPEATS = 3


def _fleet_stream_benchmark(name: str, rate_per_s: float,
                            requests: int, replicas: int = 8) -> dict:
    """Serve one poisson stream on a fixed TDX fleet (the headline is
    8-way)."""
    from repro.fleet import fixed_fleet, poisson_table, replica_spec
    spec = replica_spec("tdx", max_batch=16, kv_capacity_tokens=65536)
    table = poisson_table(requests, rate_per_s=rate_per_s, mean_prompt=128,
                          mean_output=32, seed=11)
    return _serve_benchmark(name, lambda: fixed_fleet(spec, replicas), table,
                            replicas)


def _serve_benchmark(name: str, make_fleet, table, replicas: int,
                     repeats: int = FLEET_REPEATS) -> dict:
    """Serve ``table`` on ``repeats`` fresh fleets.

    Stream generation happens outside the timed region (it is numpy
    columnar construction, not simulation); the measurement is the
    fleet core serving the full table.  The run is repeated and
    ``wall_s`` is the median, so one slow run on a shared host cannot
    trip the ``--compare`` gate; the spread is recorded beside it.
    ``ticks`` counts the grid ticks one run executed (the rest were
    jumped) and ``steps`` its ``Replica.step`` calls.  The runs are
    timed under a :class:`HostSpeed` sampler, and ``ref_s`` (with its
    spread) is the median of their reference-host seconds.
    """
    requests = len(table)
    spans = []
    speed = HostSpeed()
    speed.start()
    try:
        for _ in range(repeats):
            spans.append(_serve_once(name, make_fleet, table))
    finally:
        speed.stop()
    samples = [end - start for start, end, _, _ in spans]
    reference = [speed.reference_s(start, end) for start, end, _, _ in spans]
    wall_s = statistics.median(samples)
    return {"requests": requests, "replicas": replicas, "wall_s": wall_s,
            "wall_min_s": min(samples), "wall_max_s": max(samples),
            "req_per_wall_s": requests / wall_s,
            "ref_s": statistics.median(reference),
            "ref_min_s": min(reference), "ref_max_s": max(reference),
            "repeats": repeats, "ticks": spans[-1][2],
            "steps": spans[-1][3]}


def _serve_once(name: str, make_fleet,
                table) -> tuple[float, float, int, int]:
    """One timed run on a fresh fleet: ``(start, end, ticks, steps)``."""
    fleet = make_fleet()
    ticks = steps = 0
    tick = fleet.run_tick

    def counted() -> None:
        nonlocal ticks
        ticks += 1
        tick()

    def stepping(step):
        def counted_step(until_s):
            nonlocal steps
            steps += 1
            return step(until_s)
        return counted_step

    fleet.run_tick = counted
    for replica in fleet.replicas:
        replica.step = stepping(replica.step)
    start = time.perf_counter()
    report = fleet.run(table)
    end = time.perf_counter()
    served = len(report.outcomes)
    if served < len(table):
        raise AssertionError(f"{name} completed only {served} requests")
    return start, end, ticks, steps


def fleet_million_benchmark() -> dict:
    """The fleet headline: one million requests in one run, offered at
    400 req/s (~17x capacity, so no quiet tick is ever jumped)."""
    return _fleet_stream_benchmark("fleet_1M_req", 400.0, 1_000_000)


def fleet_sparse_benchmark() -> dict:
    """The headline fleet and stream seed at 0.5 req/s, 100k requests:
    most grid ticks are quiet, so this times the tick jumps."""
    return _fleet_stream_benchmark("fleet_sparse_100k_req", 0.5, 100_000)


def fleet_wide_benchmark() -> dict:
    """``fleet_sparse``'s load per replica (1/16 req/s) on 256 replicas,
    20k requests: most replicas are idle on any tick, so this times how
    the fleet loop scales with width."""
    return _fleet_stream_benchmark("fleet_wide_256", 0.0625 * 256, 20_000,
                                   replicas=256)


#: Repeats of each ``fleet_cost_slo_backlog`` stream (~0.1 s per run).
COST_SLO_REPEATS = 7


def fleet_cost_slo_benchmark() -> dict:
    """3 TDX + 1 cGPU behind the cost/SLO router (``slo_ttft_s=10``) at
    100 req/s of 1k-token prompts, 4,000 requests: the queues run deep,
    so this times TTFT estimates under backlog.  ``flat_ratio`` is its
    median per-request reference-host time (``ref_s``) over that of the
    same config cut to 1,000 requests (1.0 = flat in backlog).
    Reference-host seconds, so a host that slows between the two
    streams does not read as a change of slope; the median, because a
    ~10 ms run sees only a probe or two of the host-speed sampler, so
    its fastest repeat is an outlier of the rescaling as often as of the
    run.  Each stream is served once untimed first, so neither side pays
    for costing its prompt lengths, then ``COST_SLO_REPEATS`` times: one
    run is short, so the median needs more samples than the other fleet
    benchmarks take."""
    from repro.fleet import (
        CostSloRouter,
        FleetSimulator,
        poisson_table,
        replica_spec,
    )
    specs = [replica_spec("tdx")] * 3 + [replica_spec("cgpu")]

    def fleet() -> FleetSimulator:
        return FleetSimulator(specs, router=CostSloRouter(slo_ttft_s=10.0))

    def serve(requests: int) -> dict:
        table = poisson_table(requests, rate_per_s=100.0, mean_prompt=1024,
                              seed=11)
        fleet().run(table)
        return _serve_benchmark("fleet_cost_slo_backlog", fleet, table,
                                len(specs), repeats=COST_SLO_REPEATS)

    short = serve(1_000)
    result = serve(4_000)
    result["flat_ratio"] = ((result["ref_s"] / result["requests"])
                            / (short["ref_s"] / short["requests"]))
    return result


#: Regression tolerance for the --compare gate: a benchmark may be at
#: most this much slower than the committed baseline before CI fails.
COMPARE_SLACK = 1.25

#: Benchmarks the --compare gate enforces (others are informational).
COMPARE_GATED = ("fleet_1M_req",)


def compare_against(report: dict, baseline_path: Path) -> list[str]:
    """Diff ``report`` against a committed baseline; return failures."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name in COMPARE_GATED:
        ours = report["micro"].get(name)
        theirs = baseline.get("micro", {}).get(name)
        if ours is None or theirs is None:
            failures.append(f"{name}: missing from "
                            f"{'report' if ours is None else 'baseline'}")
            continue
        # ``ref_s`` is the median of the recorded repeats in
        # reference-host seconds, so host speed cancels out.
        if "ref_s" not in ours or "ref_s" not in theirs:
            where = "report" if "ref_s" not in ours else "baseline"
            failures.append(f"{name}: no reference-host seconds (ref_s) "
                            f"in the {where}")
            continue
        ref, committed = ours["ref_s"], theirs["ref_s"]
        verdict = "OK" if ref <= committed * COMPARE_SLACK else "FAIL"
        print(f"compare {name}: median {ref:.1f} reference-host s "
              f"(wall {ours['wall_s']:.1f}s) vs committed {committed:.1f}s "
              f"(x{ref / committed:.2f}, slack x{COMPARE_SLACK}) {verdict}",
              file=sys.stderr)
        if verdict == "FAIL":
            failures.append(
                f"{name}: {ref:.1f} reference-host s exceeds committed "
                f"{committed:.1f}s by more than "
                f"{(COMPARE_SLACK - 1) * 100:.0f}%")
    return failures


def suite_benchmark() -> dict:
    """Wall-clock of the tier-1 suite in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q",
           "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=REPO_ROOT, capture_output=True, text=True,
                          env=env)
    wall_s = time.perf_counter() - start
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"wall_s": wall_s, "returncode": proc.returncode, "summary": tail}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", action="store_true",
                        help="also time the tier-1 pytest suite")
    parser.add_argument("--budget-s", type=float, default=None,
                        help="fail (exit 1) if the suite exceeds this budget")
    parser.add_argument("--baseline-s", type=float, default=None,
                        help="pre-optimization suite wall-clock to record "
                             "alongside the measurement")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--quick", action="store_true",
                        help="skip the 1M- and 100k-request, the "
                             "256-replica and the cost/SLO backlog fleet "
                             "benchmarks")
    parser.add_argument("--compare", type=Path, default=None,
                        help="fail (exit 1) if a gated benchmark regresses "
                             f"more than {(COMPARE_SLACK - 1) * 100:.0f}%% "
                             "past this committed baseline JSON")
    args = parser.parse_args(argv)

    report = {
        "schema": "repro-bench/1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "micro": micro_benchmarks(),
        "caches": {name: {"hits": s.hits, "misses": s.misses,
                          "hit_rate": round(s.hit_rate, 4),
                          "size": s.size, "evictions": s.evictions}
                   for name, s in sorted(cache_stats().items())},
    }
    micro = report["micro"]
    speedup = (micro["decode_loop_stride1"]["best_s"]
               / micro["decode_vectorized_stride1"]["best_s"])
    report["vectorized_speedup_x"] = round(speedup, 1)

    if not args.quick:
        micro["fleet_1M_req"] = fleet_million_benchmark()
        micro["fleet_sparse_100k_req"] = fleet_sparse_benchmark()
        micro["fleet_wide_256"] = fleet_wide_benchmark()
        micro["fleet_cost_slo_backlog"] = fleet_cost_slo_benchmark()

    if args.suite or args.budget_s is not None:
        report["suite"] = suite_benchmark()
        if args.baseline_s is not None:
            report["suite"]["baseline_wall_s"] = args.baseline_s
            report["suite"]["speedup_vs_baseline_x"] = round(
                args.baseline_s / report["suite"]["wall_s"], 1)

    out = json.dumps(report, indent=2, sort_keys=False)
    print(out)
    if args.out:
        args.out.write_text(out + "\n")

    if args.compare is not None:
        failures = compare_against(report, args.compare)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1

    suite = report.get("suite")
    if suite and suite["returncode"] != 0:
        print("FAIL: test suite failed", file=sys.stderr)
        return suite["returncode"]
    if suite and args.budget_s is not None and suite["wall_s"] > args.budget_s:
        print(f"FAIL: suite took {suite['wall_s']:.1f}s "
              f"> budget {args.budget_s:.1f}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
