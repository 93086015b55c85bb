"""Fleet-simulator benchmark: cold/warm simulated throughput per workload.

Usage (from the repository root)::

    python3 perfbench/run.py                          # all workloads
    python3 perfbench/run.py --workload fleet_sparse --seed 12
    python3 perfbench/run.py --workload fleet_overload --trace 1

For ``--seconds`` seconds the parent starts one worker process at a
time (``worker.py``); each is one sample on the next input stream of
the seed: set-up, one cold call, then warm calls.  It prints every
metric that ``BENCHMARK.json`` lists, with its unit, median, min, max
and sample count, times rescaled to a reference host speed
(``hostspeed.py``), then checks the outputs:

* every call of a worker produced the same report digest (cold, warm
  and traced alike);
* completed plus shed requests equal the stream length;
* on stream 0 of the reference seed, the digest equals
  ``perfbench/reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every worker ran and every check held.  ``--trace 1`` is
a separate run that reports the per-layer metrics instead; end-to-end
numbers always come from untraced runs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A worker that runs longer than this is killed and counted as failed.
WORKER_TIMEOUT_S = 120.0


def run_worker(workload: str, seed: int, stream: int, scale: float,
               trace: bool) -> tuple[dict | None, str]:
    """One worker subprocess; returns ``(result, error)``."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--stream", str(stream), "--scale", repr(scale),
               "--trace", str(int(trace))]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {WORKER_TIMEOUT_S:g}s"
    if done.returncode != 0:
        return None, done.stderr.strip()[-2000:] or f"exit {done.returncode}"
    try:
        return json.loads(done.stdout.strip().splitlines()[-1]), ""
    except (json.JSONDecodeError, IndexError):
        return None, "worker printed no JSON result"


def sample(workload: str, seed: int, scale: float, trace: bool,
           seconds: float) -> tuple[list[dict], list[str]]:
    """Workers one after another until the next would pass ``seconds``.

    Worker ``k`` takes stream ``k`` of ``seed``.
    """
    results, errors = [], []
    start = time.perf_counter()
    for stream in itertools.count():
        began = time.perf_counter()
        result, error = run_worker(workload, seed, stream, scale, trace)
        if result is None:
            errors.append(error)
        else:
            results.append(result)
        now = time.perf_counter()
        if now + (now - began) - start > seconds:
            return results, errors


def end_to_end(results: list[dict]) -> dict[str, list[float]]:
    """End-to-end samples, in reference-host seconds (``hostspeed.py``)."""
    samples = {"cold_req_per_s": [], "warm_req_per_s": [], "setup_s": [],
               "peak_rss_mb": []}
    for result in results:
        setup, cold, *warm = result["ref_s"]
        requests = result["requests"]
        samples["setup_s"].append(setup)
        samples["cold_req_per_s"].append(requests / cold)
        samples["warm_req_per_s"].extend(requests / s for s in warm)
        samples["peak_rss_mb"].append(result["peak_rss_mb"])
    return samples


def per_layer(results: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for result in results:
        flat = dict(result["layers"])
        for phase in ("cold", "warm"):
            flat.update((f"{phase}.{key}", value)
                        for key, value in result[phase].items())
        for key, value in flat.items():
            samples.setdefault(key, []).append(value)
    return samples


def check(results: list[dict], reference: dict, seed: int,
          scale: float) -> list[str]:
    """Output checks on every call of every worker."""
    problems = []
    for result in results:
        stream = result["stream"]
        first = result["digests"][0]
        if any(d != first for d in result["digests"]):
            problems.append(f"stream {stream}: report digests differ "
                            "between calls")
        requests = result["requests"]
        if first["requests"] + first["shed_requests"] != requests:
            problems.append(f"stream {stream}: completed "
                            f"{first['requests']} + shed "
                            f"{first['shed_requests']} != {requests}")
        pinned = reference.get(result["workload"])
        if (stream == 0 and pinned and pinned["seed"] == seed
                and pinned["scale"] == scale and pinned["digest"] != first):
            problems.append("stream 0: digest differs from the reference")
    return problems


def bench(workload: str, args, spec: dict, reference: dict,
          scale: float = 1.0) -> dict:
    """Sample one workload, print its table, return its summary.

    ``scale`` multiplies the stream length (1/250 in the smoke test).
    """
    results, errors = sample(workload, args.seed, scale, bool(args.trace),
                             args.seconds)
    problems = [f"worker failed: {error}" for error in errors]
    metrics = {}
    if results:
        problems += check(results, reference, args.seed, scale)
        kind = "per_layer" if args.trace else "end_to_end"
        samples = per_layer(results) if args.trace else end_to_end(results)
        print(f"{workload}  seed={args.seed}  scale={scale:g}  "
              f"requests={results[0]['requests']}  workers={len(results)}")
        print(f"  {'metric':<40} {'unit':<6} {'median':>12} {'min':>12} "
              f"{'max':>12} {'n':>3}")
        for entry in spec[kind]:
            name, unit = entry["name"], entry["unit"]
            values = samples.get(name)
            if not values:
                problems.append(f"metric {name} was not measured")
                continue
            median = statistics.median(values)
            metrics[name] = {"value": median, "unit": unit}
            print(f"  {name:<40} {unit:<6} {median:>12.6g} "
                  f"{min(values):>12.6g} {max(values):>12.6g} "
                  f"{len(values):>3}")
        absent = sorted({name for r in results for name in r.get("absent",
                                                                 ())})
        if absent:
            print(f"  absent boundaries: {', '.join(absent)}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    return {"workload": workload, "attempted": len(results) + len(errors),
            "failed": len(errors), "correct": not problems,
            "metrics": metrics, "workers": results}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="Fleet-simulator benchmark (see perfbench/README.md).")
    parser.add_argument("--workload", default="all",
                        choices=["all"] + workload_names)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path,
                        help="also write every worker's raw result here")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("src/repro not found: run from a full checkout",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    names = workload_names if args.workload == "all" else [args.workload]
    summaries = [bench(name, args, spec, reference) for name in names]

    if args.json is not None:
        args.json.write_text(json.dumps(summaries, indent=1))
    correct = all(s["correct"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{name}": value for s in summaries
                   for name, value in s["metrics"].items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": sum(s["failed"] for s in summaries),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
