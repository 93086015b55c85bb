"""One benchmark sample: set up a workload, run it cold, then warm.

Run as ``python3 perfbench/worker.py --workload W --seed N [--stream K]
[--scale S] [--trace 0|1]``; prints one JSON object.  ``run.py`` starts
one worker per sample so that every cold call happens in a fresh
interpreter with every cache empty.

Untraced, the worker times set-up (import plus building the inputs),
the cold call and ``warm_calls`` warm calls, and samples host speed
throughout (``hostspeed.py``) to rescale each time to a reference host.
Traced, it wraps the layer boundaries listed in :func:`install`, runs
the same calls, then removes the wrappers and repeats the warm calls
untraced to measure the tracer's own overhead.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hostspeed import HostSpeed  # noqa: E402

#: Run as a program, the worker samples host speed from its first line,
#: so that set-up is rescaled by probes taken while it ran.
SPEED = HostSpeed()
if __name__ == "__main__":
    SPEED.start()

import workloads  # noqa: E402  (imports repro: part of set-up)
from tracer import Tracer  # noqa: E402


def _find(path: str) -> object | None:
    """``module:Attr.attr`` resolved, or ``None`` if any part is gone."""
    module_name, _, attrs = path.partition(":")
    try:
        found = importlib.import_module(module_name)
    except ImportError:
        return None
    for attr in filter(None, attrs.split(".")):
        found = getattr(found, attr, None)
    return found


def install(tracer) -> None:
    """Wrap the public layer boundaries of ``repro`` in ``tracer``.

    A boundary whose module, class or method no longer exists is listed
    in ``tracer.absent`` and its metrics read 0.
    """
    counters = tracer.counters

    def discover_router(args) -> None:
        # The router class actually in use, whatever it is called.
        router = getattr(args[0], "router", None)
        if router is not None:
            tracer.wrap(type(router), "choose", "router.choose")

    def run_started(args, _result) -> None:
        counters["tick.start_s"] = getattr(args[0], "run_clock_s", 0.0)

    def run_finishing(args) -> None:
        counters["tick.end_s"] = getattr(args[0], "run_clock_s", 0.0)
        counters["tick.width_s"] = getattr(args[0], "tick_s", 0.0)

    def step_called(args) -> None:
        counters["replica.step.idle"] += getattr(args[0], "outstanding",
                                                 None) == 0

    def evacuated(_args, result) -> None:
        counters["faults.evacuations"] += len(result)

    seen: set = set()

    def prefill_done(args, _result) -> None:
        key = (id(args[0]), "prefill", args[1])
        if key not in seen:
            seen.add(key)
            counters["stepcost.prefill.misses"] += 1

    def decode_done(args, _result) -> None:
        table, batch, context = args[0], args[1], args[2]
        bucket = getattr(type(table), "context_bucket", None)
        key = (id(table), batch, bucket(context) if bucket else context)
        if key not in seen:
            seen.add(key)
            counters["stepcost.decode.misses"] += 1
        counters["stepcost.decode.batch"] += batch

    boundaries = (
        # (owner, attribute, span, before hook, after hook)
        ("repro.fleet:FleetSimulator", "run", "cluster.run",
         discover_router, None),
        ("repro.fleet:FleetSimulator", "begin_run", "cluster.begin_run",
         None, run_started),
        ("repro.fleet:FleetSimulator", "run_tick", "cluster.run_tick",
         None, None),
        ("repro.fleet:FleetSimulator", "finish_run", "report.finish_run",
         run_finishing, None),
        ("repro.fleet:Replica", "submit", "replica.submit", None, None),
        ("repro.fleet:Replica", "step", "replica.step", step_called, None),
        ("repro.fleet:Replica", "crash", "replica.crash", None, evacuated),
        ("repro.fleet:Replica", "begin_attestation",
         "replica.begin_attestation", None, evacuated),
        ("repro.fleet:Replica", "cancel", "replica.cancel", None, None),
        ("repro.serving.stepcost:StepCostTable", "prefill_s",
         "stepcost.prefill", None, prefill_done),
        ("repro.serving.stepcost:StepCostTable", "decode_step_s",
         "stepcost.decode", None, decode_done),
        ("repro.serving.stepcost", "prefill_ops", "graph.build", None, None),
        ("repro.serving.stepcost", "decode_step_ops", "graph.build",
         None, None),
        ("repro.engine.roofline:CpuCostModel", "step_cost",
         "roofline.step_cost", None, None),
        ("repro.engine.roofline:GpuCostModel", "step_cost",
         "roofline.step_cost", None, None),
        ("repro.faults:FaultInjector", "due", "faults.due", None, None),
        ("repro.fleet:RetryQueue", "push", "faults.retry_queue", None, None),
        ("repro.fleet:RetryQueue", "pop_due", "faults.retry_queue",
         None, None),
        ("repro.fleet:FleetReport", "to_dict", "report.to_dict", None, None),
        ("repro.tenancy.report", "tenant_breakdown", "tenancy.breakdown",
         None, None),
    )
    for path, attr, span, before, after in boundaries:
        owner = _find(path)
        if owner is None:
            tracer.absent.append(f"{path}.{attr}")
        else:
            tracer.wrap(owner, attr, span, before, after)


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, report: dict, wall_s: float) -> dict:
    """Per-layer numbers of one traced call (names without prefix)."""
    fleet = workloads.fleet_dict(report)
    counters = tracer.counters
    ticks = tracer.calls("cluster.run_tick")
    width = counters["tick.width_s"]
    grid = (round((counters["tick.end_s"] - counters["tick.start_s"])
                  / width) if width else ticks)
    choose = tracer.calls("router.choose")
    steps = tracer.calls("replica.step")
    prefills = tracer.calls("stepcost.prefill")
    routed = tracer.calls_under("stepcost.prefill", "router.choose")
    decodes = tracer.calls("stepcost.decode")
    hits = sum(usage.get("prefix_hits", 0) for usage in fleet["replicas"])
    misses = sum(usage.get("prefix_misses", 0)
                 for usage in fleet["replicas"])
    return {
        "cluster.run.self_s": tracer.self_s("cluster.run"),
        "cluster.run_tick.calls": ticks,
        "cluster.run_tick.self_s": tracer.self_s("cluster.run_tick"),
        "cluster.ticks_jumped_frac": _frac(grid - ticks, grid),
        "router.choose.calls": choose,
        "router.choose.self_s": tracer.self_s("router.choose"),
        "router.choose.us_per_call": 1e6 * _frac(
            tracer.total_s("router.choose"), choose),
        "replica.submit.calls": tracer.calls("replica.submit"),
        "replica.submit.self_s": tracer.self_s("replica.submit"),
        "replica.step.calls": steps,
        "replica.step.self_s": tracer.self_s("replica.step"),
        "replica.step.idle_frac": _frac(counters["replica.step.idle"], steps),
        "stepcost.prefill.calls": prefills,
        "stepcost.prefill.admit_calls": prefills - routed,
        "stepcost.prefill.route_calls": routed,
        "stepcost.prefill.misses": counters["stepcost.prefill.misses"],
        "stepcost.prefill.self_s": tracer.self_s("stepcost.prefill"),
        "stepcost.decode.calls": decodes,
        "stepcost.decode.misses": counters["stepcost.decode.misses"],
        "stepcost.decode.self_s": tracer.self_s("stepcost.decode"),
        "stepcost.decode.mean_batch": _frac(counters["stepcost.decode.batch"],
                                            decodes),
        "sched.preemptions": fleet["total_preemptions"],
        "sched.recompute_frac": _frac(fleet["total_preemptions"],
                                      prefills - routed),
        "graph.build.calls": tracer.calls("graph.build"),
        "graph.build.self_s": tracer.self_s("graph.build"),
        "roofline.step_cost.calls": tracer.calls("roofline.step_cost"),
        "roofline.step_cost.self_s": tracer.self_s("roofline.step_cost"),
        "faults.due.calls": tracer.calls("faults.due"),
        "faults.retry_queue.calls": tracer.calls("faults.retry_queue"),
        "faults.evacuations": counters["faults.evacuations"],
        "faults.cancel.calls": tracer.calls("replica.cancel"),
        "faults.retries": fleet["retries"],
        "faults.shed": fleet["shed_requests"],
        "faults.wasted_tokens": fleet["wasted_tokens"],
        "admission.prefix_hit_frac": _frac(hits, hits + misses),
        "report.finish_run.self_s": tracer.self_s("report.finish_run"),
        "report.to_dict.self_s": tracer.self_s("report.to_dict"),
        "trace.coverage_frac": _frac(tracer.root_s(), wall_s),
    }


def _timed_call(workload, inputs, spans: list) -> dict:
    """One public call; appends its ``(start, end)`` to ``spans``."""
    start = time.perf_counter()
    report = workload.serve(inputs)
    spans.append((start, time.perf_counter()))
    return report


def run_worker(name: str, seed: int, scale: float = 1.0,
               trace: bool = False, stream: int = 0,
               speed: HostSpeed | None = None,
               started: float | None = None) -> dict:
    """Take one sample of workload ``name``; returns a JSON-safe dict.

    The inputs are stream ``stream`` of ``seed``
    (:func:`workloads.stream_seed`).  ``wall_s`` and, untraced, ``ref_s``
    list set-up, the cold call and the warm calls, in that order.
    ``started`` is when set-up began and ``speed`` a sampler already
    running since then (defaults: now, and one started now); the
    program entry passes the instant before ``repro`` was imported.
    """
    started = time.perf_counter() if started is None else started
    workload = workloads.WORKLOADS[name]
    requests = workloads.scaled_requests(workload, scale)
    result = {"workload": name, "seed": seed, "stream": stream,
              "scale": scale, "requests": requests}
    tracer = Tracer() if trace else None
    reports, layers = [], []
    if speed is None and not trace:
        speed = HostSpeed()
        speed.start()
    try:
        table_start = time.perf_counter()
        inputs = workload.setup(workloads.stream_seed(seed, stream), requests)
        spans = [(started, time.perf_counter())]
        table_s = spans[0][1] - table_start
        if tracer is not None:
            install(tracer)
        for _ in range(1 + workload.warm_calls):
            if tracer is not None:
                tracer.reset()
            reports.append(_timed_call(workload, inputs, spans))
            if tracer is not None:
                layers.append(layer_metrics(
                    tracer, reports[-1], spans[-1][1] - spans[-1][0]))
                result["spans_cold" if len(layers) == 1
                       else "spans_warm"] = tracer.table()
    finally:
        if speed is not None:
            speed.stop()
        if tracer is not None:
            result["absent"] = tracer.absent
            tracer.uninstall()

    result["wall_s"] = [end - start for start, end in spans]
    if speed is not None:
        result["ref_s"] = [speed.reference_s(start, end)
                           for start, end in spans]
        # ru_maxrss is in KiB on Linux.
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                 .ru_maxrss / 1024.0)
    else:
        result["cold"] = layers[0]
        result["warm"] = {key: statistics.median(m[key] for m in layers[1:])
                          for key in layers[0]}
        untraced: list = []
        for _ in range(workload.warm_calls):
            reports.append(_timed_call(workload, inputs, untraced))
        result["layers"] = {
            "arrivals.table_s": table_s,
            "trace.overhead_frac": (
                statistics.median(result["wall_s"][2:])
                / statistics.median(end - start for start, end in untraced)
                - 1.0),
        }
    result["digests"] = [workloads.digest(report) for report in reports]
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.trace:
        SPEED.stop()  # traced times are raw: no probes inside the spans
    result = run_worker(args.workload, args.seed, args.scale,
                        bool(args.trace), args.stream,
                        speed=None if args.trace else SPEED, started=START)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
