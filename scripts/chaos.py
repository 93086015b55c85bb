"""Chaos CLI: fault-inject TEE serving fleets and price the damage.

Drives :mod:`repro.faults` against the fleet simulator — the resilience
counterpart of ``scripts/fleet.py``: what does a replica failure rate do
to SLO attainment and $/Mtok on TDX vs confidential-GPU fleets, where do
retries and wasted tokens go, and what does graceful degradation shed?

Usage::

    PYTHONPATH=src python scripts/chaos.py sweep [--json sweep.json]
    PYTHONPATH=src python scripts/chaos.py sweep --kinds tdx,cgpu \\
        --mtbf 12,6,3 --requests 36 --rate 1.5 --replicas 1 --seed 7
    PYTHONPATH=src python scripts/chaos.py sweep --jsonl rows.jsonl
    PYTHONPATH=src python scripts/chaos.py sweep --resume runs/chaos \\
        --checkpoint-every 5 --point-timeout 60
    PYTHONPATH=src python scripts/chaos.py run --kind tdx --replicas 2 \\
        --mtbf 8 --requests 40 --rate 4 [--timeline]
    PYTHONPATH=src python scripts/chaos.py run --kind tdx --crash 5:0 \\
        --hang 8:1:3 --requests 30

``sweep`` runs :func:`repro.state.chaos_grid` — the grid
``mtbf_sweep()`` runs — and with no overrides reproduces the committed
``golden.chaos_mtbf`` snapshot exactly (same seeds, same grid).  Rows
stream to ``--jsonl`` as each grid point completes, so an interrupted
sweep keeps everything already computed.  ``--resume RUN_DIR`` only
adds the journal: the same grid is write-ahead journaled into a durable
run directory that survives SIGKILL — rerun the same command (or
``scripts/resume.py RUN_DIR``) to continue where it stopped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import guards  # noqa: E402
from repro.faults import (  # noqa: E402
    DegradationPolicy,
    FaultSchedule,
    RetryPolicy,
    mtbf_schedule,
    one_shot,
)
from repro.faults.sweep import (  # noqa: E402
    DEFAULT_KINDS,
    ROW_FIELDS,
)
from repro.fleet import (  # noqa: E402
    fixed_fleet,
    poisson_table,
    replica_spec,
)
from repro.state import StateError, SweepRunner, chaos_grid  # noqa: E402


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def _print_rows(title: str, rows: list[dict]) -> None:
    if not rows:
        print(f"=== {title} === (empty)")
        return
    columns = list(rows[0])
    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows))
              for c in columns}
    print(f"\n=== {title} ===")
    print("  ".join(c.ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_fmt(row[c]).ljust(widths[c]) for c in columns))


def _parse_point(text: str, kind: str) -> object:
    """``time:replica[:duration[:factor]]`` -> FaultSchedule."""
    parts = text.split(":")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError(
            f"--{kind} wants time:replica[:duration[:factor]], got {text!r}")
    time_s, replica_id = float(parts[0]), int(parts[1])
    params = {}
    if kind == "crash":
        if len(parts) > 2:
            params["restart_after_s"] = float(parts[2])
    else:
        params["duration_s"] = float(parts[2]) if len(parts) > 2 else 5.0
        if len(parts) > 3:
            params["factor"] = float(parts[3])
        elif kind == "slowdown":
            params["factor"] = 2.0
        elif kind == "link_degrade":
            params["factor"] = 0.25
    return one_shot(kind, replica_id, time_s, **params)


def _schedule_from_args(args: argparse.Namespace,
                        replicas: int) -> FaultSchedule:
    schedule = FaultSchedule.empty()
    for kind in ("crash", "hang", "slowdown", "boot_failure",
                 "attestation_failure", "link_degrade"):
        for text in getattr(args, kind.replace("-", "_")) or ():
            schedule = schedule + _parse_point(text, kind)
    if args.mtbf is not None:
        schedule = schedule + mtbf_schedule(
            list(range(replicas)), mtbf_s=args.mtbf,
            horizon_s=args.horizon, seed=args.seed)
    return schedule


def cmd_run(args: argparse.Namespace) -> int:
    from repro.tee.boot import boot_profile

    spec = replica_spec(args.kind, max_batch=16, kv_capacity_tokens=65536,
                        boot=(boot_profile(args.kind) if args.phased_boot
                              else None))
    schedule = _schedule_from_args(args, args.replicas)
    degradation = None
    if args.degrade:
        spill_spec = (replica_spec(args.spill_kind, max_batch=16,
                                   kv_capacity_tokens=65536)
                      if args.degrade == "spill" else None)
        degradation = DegradationPolicy(mode=args.degrade,
                                        max_hold_s=args.max_hold,
                                        spill_spec=spill_spec)
    fleet = fixed_fleet(
        spec, args.replicas, faults=schedule,
        retry_policy=RetryPolicy(timeout_s=args.timeout,
                                 max_attempts=args.max_attempts,
                                 seed=args.seed),
        degradation=degradation)
    requests = poisson_table(args.requests, args.rate, args.mean_prompt,
                             args.mean_output, seed=args.seed)
    report = fleet.run(requests)

    print(f"submitted          {report.submitted}  "
          f"(completed {len(report.outcomes)}, shed {len(report.shed)})")
    print(f"faults applied     {len(report.fault_events)}  "
          f"retries {report.retries}  wasted tokens {report.wasted_tokens}")
    print(f"SLO attainment     "
          f"{100 * report.slo_attainment(args.slo_ttft):.1f}% "
          f"(TTFT <= {args.slo_ttft:g} s)")
    print(f"fleet cost         ${report.cost_usd:.4f}  "
          f"(goodput ${report.goodput_cost_usd:.4f}, "
          f"wasted ${report.wasted_cost_usd:.4f})")
    if report.tokens_out:
        print(f"$/Mtok             {report.usd_per_mtok:.2f}")
    _print_rows("replicas", report.summary_rows())
    if report.shed:
        _print_rows("shed requests", [s.to_dict() for s in report.shed])
    if args.timeline:
        _print_rows("fault timeline", [
            {"t_s": a.applied_s, "kind": a.event.kind,
             "replica": a.event.replica_id, "effect": a.effect}
            for a in report.fault_events])
    if args.json:
        payload = report.to_dict()
        payload["fault_timeline"] = [a.to_dict()
                                     for a in report.fault_events]
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _mtbf_grid(text: str) -> tuple[float | None, ...]:
    """``--mtbf`` of ``sweep``: comma-separated positive seconds, with
    ``inf``/``none`` for the fault-free anchor."""
    grid = []
    for item in text.split(","):
        if item in ("inf", "none"):
            grid.append(None)
            continue
        try:
            value = float(item)
            guards.finite("MTBF", value, gt=0)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"MTBF {item!r} is not a positive number of seconds, "
                f"'inf' or 'none'") from None
        grid.append(value)
    return tuple(grid)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        spec = chaos_grid(kinds=tuple(args.kinds.split(",")),
                          mtbf_grid_s=args.mtbf_grid,
                          num_requests=args.requests,
                          rate_rps=args.rate, mean_prompt=args.mean_prompt,
                          mean_output=args.mean_output,
                          replicas=args.replicas, seed=args.seed,
                          slo_ttft_s=args.slo_ttft, timeout_s=args.timeout,
                          horizon_s=args.horizon,
                          checkpoint_every_s=args.checkpoint_every,
                          point_timeout_s=args.point_timeout)
        runner = SweepRunner.create(args.resume, spec)
    except StateError as error:
        print(f"chaos.py sweep: {error}", file=sys.stderr)
        return 2
    if args.resume:
        print(f"run dir {args.resume}: {len(runner.completed())}/"
              f"{len(spec.points)} points journaled, "
              f"{len(runner.pending())} to go")
    # Partial results stream as each point lands (append when resuming:
    # the run directory's WAL already holds the earlier rows).
    stream = (open(args.jsonl, "a" if args.resume else "w",
                   encoding="utf-8") if args.jsonl else None)

    def emit(point, row: dict) -> None:
        if stream is not None:
            stream.write(json.dumps(row, sort_keys=True) + "\n")
            stream.flush()

    try:
        by_index = runner.run(on_row=emit)
    finally:
        if stream is not None:
            stream.close()
    rows = [{field: by_index[index][field] for field in ROW_FIELDS}
            for index in sorted(by_index)]
    quarantined = runner.quarantined()
    _print_rows(f"MTBF sweep (SLO: TTFT <= {args.slo_ttft:g} s)", rows)
    if quarantined:
        _print_rows("quarantined points", [
            {"index": q["index"], "key": q["key"],
             "attempts": q["attempts"], "error": q["error"]}
            for q in quarantined.values()])
    anchor = {r["kind"]: r for r in rows if r["mtbf_s"] is None}
    for row in rows:
        base = anchor.get(row["kind"])
        if base is None or row["mtbf_s"] is None or not row["usd_per_mtok"]:
            continue
        slo_drop = base["slo_attainment"] - row["slo_attainment"]
        cost_x = row["usd_per_mtok"] / base["usd_per_mtok"]
        print(f"{row['kind']:>6} @ MTBF {row['mtbf_s']:g}s: "
              f"SLO -{100 * slo_drop:.1f} pts, $/Mtok x{cost_x:.2f}")
    if args.json:
        args.json.write_text(json.dumps(rows, indent=2) + "\n")
    return 0


def _add_workload_args(p: argparse.ArgumentParser, requests: int,
                       rate: float, replicas: int, grid: bool = False) -> None:
    # A grid checks its own numbers when it is built, naming the grid
    # field; ``run`` refuses them at argparse.
    positive = float if grid else guards.number_arg(gt=0)
    whole = int if grid else guards.count_arg(ge=1)
    natural = int if grid else guards.count_arg(ge=0)
    p.add_argument("--requests", type=whole, default=requests)
    p.add_argument("--rate", type=positive, default=rate)
    p.add_argument("--mean-prompt", type=whole, default=128)
    p.add_argument("--mean-output", type=whole, default=64)
    p.add_argument("--replicas", type=whole, default=replicas)
    p.add_argument("--seed", type=natural, default=7)
    p.add_argument("--slo-ttft", type=guards.seconds_arg, default=2.0)
    p.add_argument("--timeout", type=positive, default=20.0)
    p.add_argument("--horizon", type=positive, default=40.0)
    p.add_argument("--json", type=Path, default=None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fault-inject TEE serving fleets and price the damage")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one chaos run against one fleet")
    run.add_argument("--kind", default="tdx")
    run.add_argument("--mtbf", type=guards.number_arg(gt=0), default=None,
                     help="arm a hazard-rate schedule at this MTBF (s)")
    for kind in ("crash", "hang", "slowdown", "boot-failure",
                 "attestation-failure", "link-degrade"):
        run.add_argument(f"--{kind}", action="append", metavar="T:RID[:...]",
                         dest=kind.replace("-", "_"),
                         help=f"inject a {kind} (time:replica[:dur[:fac]])")
    run.add_argument("--degrade", choices=("shed", "spill"), default=None)
    run.add_argument("--max-hold", type=guards.number_arg(gt=0),
                     default=20.0)
    run.add_argument("--spill-kind", default="cgpu")
    run.add_argument("--timeline", action="store_true",
                     help="print the applied-fault timeline")
    run.add_argument("--phased-boot", action="store_true",
                     help="arm the kind's phased confidential boot profile "
                          "(crash recovery and attestation failures pay "
                          "the re-attestation remainder)")
    run.add_argument("--max-attempts", type=guards.count_arg(ge=1),
                     default=4)
    _add_workload_args(run, requests=40, rate=4.0, replicas=2)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep",
                           help="SLO and $/Mtok vs failure rate per backend")
    sweep.add_argument("--kinds", default=",".join(DEFAULT_KINDS))
    sweep.add_argument("--mtbf", dest="mtbf_grid", type=_mtbf_grid,
                       default=None, metavar="GRID",
                       help="comma list of MTBF seconds ('inf' = no faults)")
    sweep.add_argument("--jsonl", type=Path, default=None,
                       help="stream one JSON row per completed point")
    sweep.add_argument("--resume", type=Path, default=None, metavar="RUN_DIR",
                       help="write-ahead journal the sweep into RUN_DIR; "
                            "rerun to continue after a crash/SIGKILL")
    sweep.add_argument("--checkpoint-every", type=float, default=0.0,
                       metavar="SIM_S",
                       help="with --resume: snapshot each in-flight point "
                            "every SIM_S simulated seconds (0 = off)")
    sweep.add_argument("--point-timeout", type=float, default=None,
                       metavar="WALL_S",
                       help="with --resume: watchdog wall-clock budget per "
                            "point attempt (retry + quarantine on breach)")
    sweep.set_defaults(func=cmd_sweep)
    _add_workload_args(sweep, requests=36, rate=1.5, replicas=1, grid=True)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
