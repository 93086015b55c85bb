"""Registered point runners and grid builders for resumable sweeps.

A *point runner* is a function ``(params, context) -> row`` executing
one grid point of a sweep: it rebuilds its workload deterministically
from JSON ``params``, optionally resumes a mid-point simulator
checkpoint via the :class:`~repro.state.runner.PointContext`, and
returns a JSON row.  A grid builder below is the only description of
its sweep: the library sweeps (``mtbf_sweep``, ``capacity_sweep``,
``attest_tax_sweep``) run it inline and the sweep CLIs run it inline
or, with ``--resume``, journaled — so an inline, resumed, interrupted
or watchdog-supervised run produces the same rows.

Runners are looked up by name (the name is what ``spec.json``
persists), so a resumed process needs no pickled callables — just this
registry.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

from .. import guards
from .errors import StateSchemaError, StateValueError
from .runner import GridPoint, PointContext, SweepSpec
from .schema import require, require_finite

#: name -> runner registry, populated by :func:`point_runner`.
_POINT_RUNNERS: dict[str, Callable[[dict, PointContext], dict]] = {}


def point_runner(name: str):
    """Register a point runner under a stable, persistable name."""
    def decorate(func: Callable[[dict, PointContext], dict]):
        if name in _POINT_RUNNERS:
            raise StateSchemaError(f"point runner {name!r} already registered")
        _POINT_RUNNERS[name] = func
        return func
    return decorate


def resolve_point_runner(name: str) -> Callable[[dict, PointContext], dict]:
    """Look up a registered runner; unknown names fail with the roster."""
    try:
        return _POINT_RUNNERS[name]
    except KeyError:
        known = ", ".join(sorted(_POINT_RUNNERS)) or "<none>"
        raise StateSchemaError(
            f"unknown point runner {name!r} (registered: {known})") from None


def _run_checkpointed(fleet, requests, context: PointContext):
    """Drive a fleet to completion with periodic durable checkpoints.

    Resumes from the point's snapshot when one survives a crash,
    otherwise starts fresh; either way the tick sequence — and hence
    the report — is bit-identical to ``fleet.run(requests)``.
    Checkpoint cadence is measured on the *simulated* clock so the
    snapshot points (and thus the on-disk artifacts) are deterministic
    too.
    """
    from .checkpoint import restore, snapshot

    payload = context.resume_payload()
    if payload is not None:
        restore(fleet, payload)
    else:
        fleet.begin_run(requests)
    last_checkpoint_s = fleet.run_clock_s
    while fleet.run_active:
        fleet.run_tick()
        if (context.checkpoint_every_s > 0 and fleet.run_active
                and fleet.run_clock_s - last_checkpoint_s
                >= context.checkpoint_every_s):
            context.checkpoint(snapshot(fleet))
            last_checkpoint_s = fleet.run_clock_s
    return fleet.finish_run()


@point_runner("chaos_mtbf")
def run_chaos_mtbf_point(params: dict, context: PointContext) -> dict:
    """One ``(kind, mtbf)`` cell of :func:`repro.faults.sweep.mtbf_sweep`.

    Params are :func:`chaos_grid`'s arguments for a single cell;
    ``mtbf_s`` is ``None`` for the fault-free anchor.  The row is
    :func:`repro.faults.sweep.sweep_row`'s.
    """
    from ..faults.sweep import chaos_fleet, sweep_row
    from ..fleet.arrivals import poisson_table

    kind = require(params, "kind", str, "$.params")
    mtbf_s = require_finite(params, "mtbf_s", "$.params", optional=True)
    requests = poisson_table(
        require(params, "num_requests", int, "$.params"),
        require_finite(params, "rate_rps", "$.params", minimum=1e-12),
        require(params, "mean_prompt", int, "$.params"),
        require(params, "mean_output", int, "$.params"),
        seed=require(params, "seed", int, "$.params"))
    fleet = chaos_fleet(
        kind,
        replicas=require(params, "replicas", int, "$.params"),
        mtbf_s=mtbf_s,
        horizon_s=require_finite(params, "horizon_s", "$.params"),
        seed=require(params, "seed", int, "$.params"),
        timeout_s=require_finite(params, "timeout_s", "$.params"))
    report = _run_checkpointed(fleet, requests, context)
    return sweep_row(kind, mtbf_s, report,
                     require_finite(params, "slo_ttft_s", "$.params"))


#: Capacity-point settings a grid leaves out of a point's params while
#: they hold these values, so a default sweep's spec is the one earlier
#: builds journaled and their run directories still resume.
_CAPACITY_IMPLICIT = {"percentile": 99.0, "admission_lookahead": 0,
                      "phased_boot": False}


@point_runner("fleet_capacity")
def run_fleet_capacity_point(params: dict, context: PointContext) -> dict:
    """One fleet size of a capacity curve (:mod:`repro.fleet.planner`).

    ``params["trace"] == "capacity"`` replays the pinned golden
    capacity trace; otherwise the trace is generated from the params
    via :func:`repro.fleet.arrivals.make_arrival_table`.  The fleet
    routes least-outstanding, fault-free, at the default tick, and is
    graded on the params' TTFT percentile against the SLO.  The row is
    :meth:`~repro.fleet.planner.CapacityPoint.to_dict`.
    """
    from ..fleet.cluster import fixed_fleet
    from ..fleet.planner import CapacityPoint
    from ..fleet.replica import replica_spec
    from ..tee.boot import boot_profile

    params = {**_CAPACITY_IMPLICIT, **params}
    kind = require(params, "kind", str, "$.params")
    count = require(params, "replicas", int, "$.params")
    slo_ttft_s = require_finite(params, "slo_ttft_s", "$.params",
                                minimum=1e-12)
    phased = require(params, "phased_boot", bool, "$.params")
    spec = replica_spec(
        kind, max_batch=16, kv_capacity_tokens=65536,
        admission_lookahead=require(params, "admission_lookahead", int,
                                    "$.params"),
        boot=boot_profile(kind) if phased else None)
    trace = params.get("trace")
    if trace == "capacity":
        from ..fleet.arrivals import trace_replay
        from ..validate.fleet import CAPACITY_TRACE
        requests = trace_replay(list(CAPACITY_TRACE))
    elif trace is None:
        from ..fleet.arrivals import make_arrival_table
        requests = make_arrival_table(
            require(params, "arrivals", str, "$.params"),
            require(params, "num_requests", int, "$.params"),
            require_finite(params, "rate_rps", "$.params", minimum=1e-12),
            require(params, "mean_prompt", int, "$.params"),
            require(params, "mean_output", int, "$.params"),
            seed=require(params, "seed", int, "$.params"))
    else:
        raise StateSchemaError(
            f"$.params.trace must be 'capacity' or absent, got {trace!r}")
    del context  # capacity cells finish in one tick loop; no mid-point saves
    report = fixed_fleet(spec, count).run(requests)
    p_ttft = report.ttft_percentile(
        require_finite(params, "percentile", "$.params"))
    return CapacityPoint(
        kind=kind, replicas=count, p99_ttft_s=p_ttft,
        attainment=report.slo_attainment(slo_ttft_s),
        usd_per_mtok=report.usd_per_mtok,
        meets_slo=p_ttft <= slo_ttft_s).to_dict()


@point_runner("attest_tax")
def run_attest_tax_point(params: dict, context: PointContext) -> dict:
    """One ``(kind, scenario)`` cell of the attestation-tax table.

    The row matches :func:`repro.tee.boot.attest_tax_row` exactly —
    legacy instant-boot vs phased confidential-boot twins of the same
    headline fleet, same stream, with the $/Mtok and p99-TTFT deltas.
    """
    from ..tee.boot import attest_tax_row

    del context  # each cell pairs two short runs; no mid-point saves
    return attest_tax_row(
        require(params, "kind", str, "$.params"),
        require(params, "scenario", str, "$.params"),
        require_finite(params, "slo_ttft_s", "$.params", minimum=1e-12))


def _check_kinds(kinds: tuple[str, ...]) -> tuple[str, ...]:
    """Refuse a grid naming an unknown replica kind before any point
    runs."""
    from ..fleet.replica import REPLICA_KINDS

    for kind in kinds:
        if kind not in REPLICA_KINDS:
            raise StateValueError(f"unknown replica kind {kind!r}; "
                                  f"expected one of {REPLICA_KINDS}")
    return kinds


def _check_arrivals(arrivals: str | None) -> None:
    """Refuse a grid naming an unknown arrival process before any point
    runs (``None``: the pinned trace)."""
    from ..fleet.arrivals import ARRIVAL_KINDS

    if arrivals is not None and arrivals not in ARRIVAL_KINDS:
        raise StateValueError(f"unknown arrival process {arrivals!r}; "
                              f"expected one of {ARRIVAL_KINDS}")


@contextmanager
def _grid_numbers():
    """Re-raise a :mod:`repro.guards` refusal as a
    :class:`~repro.state.errors.StateValueError`, so a grid with a bad
    number fails when it is built, before any point runs."""
    try:
        yield
    except ValueError as error:
        raise StateValueError(str(error)) from None


def _check_stream(num_requests: int, rate_rps: float, mean_prompt: int,
                  mean_output: int) -> None:
    """The generated request stream every point of a grid serves."""
    guards.count("num_requests", num_requests, ge=1)
    guards.finite("rate_rps", rate_rps, gt=0)
    guards.count("mean_prompt", mean_prompt, ge=1)
    guards.count("mean_output", mean_output, ge=1)


def chaos_grid(kinds: tuple[str, ...] | None = None,
               mtbf_grid_s: tuple[float | None, ...] | None = None,
               num_requests: int = 36, rate_rps: float = 1.5,
               mean_prompt: int = 128, mean_output: int = 64,
               replicas: int = 1, seed: int = 7, slo_ttft_s: float = 2.0,
               timeout_s: float = 20.0, horizon_s: float = 40.0,
               checkpoint_every_s: float = 0.0,
               point_timeout_s: float | None = None) -> SweepSpec:
    """The MTBF sweep grid: one ``(kind, mtbf)`` cell per point.

    :func:`~repro.faults.sweep.mtbf_sweep` is this grid run inline, so
    these defaults are the sweep's: ``kinds`` defaults to
    :data:`~repro.faults.sweep.DEFAULT_KINDS` and ``mtbf_grid_s`` to
    :data:`~repro.faults.sweep.DEFAULT_MTBF_GRID_S`, and the default
    grid reproduces the ``golden.chaos_mtbf`` snapshot.
    """
    from ..faults.sweep import DEFAULT_KINDS, DEFAULT_MTBF_GRID_S

    kinds = _check_kinds(DEFAULT_KINDS if kinds is None else kinds)
    mtbf_grid_s = DEFAULT_MTBF_GRID_S if mtbf_grid_s is None else mtbf_grid_s
    with _grid_numbers():
        _check_stream(num_requests, rate_rps, mean_prompt, mean_output)
        guards.count("replicas", replicas, ge=1)
        guards.finite("slo_ttft_s", slo_ttft_s, gt=0)
        guards.finite("timeout_s", timeout_s, gt=0)
        guards.finite("horizon_s", horizon_s, gt=0)
        for mtbf_s in mtbf_grid_s:
            if mtbf_s is not None:
                guards.finite("mtbf_s", mtbf_s, gt=0)
    points = []
    for kind in kinds:
        for mtbf_s in mtbf_grid_s:
            label = "none" if mtbf_s is None else f"{mtbf_s:g}"
            points.append(GridPoint(
                index=len(points), key=f"{kind}/mtbf_{label}",
                runner="chaos_mtbf",
                params={"kind": kind, "mtbf_s": mtbf_s,
                        "num_requests": num_requests, "rate_rps": rate_rps,
                        "mean_prompt": mean_prompt,
                        "mean_output": mean_output, "replicas": replicas,
                        "seed": seed, "slo_ttft_s": slo_ttft_s,
                        "timeout_s": timeout_s, "horizon_s": horizon_s},
                group=kind))
    return SweepSpec(points=tuple(points),
                     checkpoint_every_s=checkpoint_every_s,
                     point_timeout_s=point_timeout_s)


def capacity_grid(kinds: tuple[str, ...] = ("tdx", "cgpu"),
                  max_replicas: int = 8, slo_ttft_s: float = 2.0,
                  percentile: float = 99.0, arrivals: str | None = None,
                  num_requests: int = 80, rate_rps: float = 4.0,
                  mean_prompt: int = 256, mean_output: int = 64,
                  seed: int = 11, admission_lookahead: int = 0,
                  phased_boot: bool = False,
                  point_timeout_s: float | None = None) -> SweepSpec:
    """A per-kind capacity curve grid with SLO-met pruning.

    ``arrivals=None`` replays the pinned golden capacity trace and the
    stream arguments do not apply; otherwise every point serves
    ``make_arrival_table(arrivals, num_requests, rate_rps, mean_prompt,
    mean_output, seed)``.  ``percentile`` is the TTFT percentile the
    SLO binds; ``admission_lookahead`` and ``phased_boot`` (the kind's
    :func:`~repro.tee.boot.boot_profile`) configure the replicas.

    :func:`~repro.fleet.planner.capacity_sweep` is this grid run
    inline, so these defaults are the sweep's, and ``max_replicas=6``
    reproduces the ``golden.fleet_capacity`` snapshot.
    ``prune_field="meets_slo"`` with ``group=kind`` is the curve's
    early stop: once a fleet size meets the SLO, the kind's larger
    sizes are skipped — including across a crash/resume boundary.
    """
    _check_kinds(kinds)
    _check_arrivals(arrivals)
    with _grid_numbers():
        guards.count("max_replicas", max_replicas, ge=1)
        guards.finite("slo_ttft_s", slo_ttft_s, gt=0)
        guards.finite("percentile", percentile, ge=0, le=100)
        guards.count("admission_lookahead", admission_lookahead, ge=0)
        if arrivals is not None:
            _check_stream(num_requests, rate_rps, mean_prompt, mean_output)
    if arrivals is None:
        stream: dict = {"trace": "capacity"}
    else:
        stream = {"arrivals": arrivals, "num_requests": num_requests,
                  "rate_rps": rate_rps, "mean_prompt": mean_prompt,
                  "mean_output": mean_output, "seed": seed}
    settings = {"percentile": percentile,
                "admission_lookahead": admission_lookahead,
                "phased_boot": phased_boot}
    stream.update((name, value) for name, value in settings.items()
                  if value != _CAPACITY_IMPLICIT[name])
    points = []
    for kind in kinds:
        for count in range(1, max_replicas + 1):
            points.append(GridPoint(
                index=len(points), key=f"{kind}/replicas_{count}",
                runner="fleet_capacity",
                params={"kind": kind, "replicas": count,
                        "slo_ttft_s": slo_ttft_s, **stream},
                group=kind))
    return SweepSpec(points=tuple(points), prune_field="meets_slo",
                     point_timeout_s=point_timeout_s)


def fold_capacity_rows(spec: SweepSpec, rows: dict[int, dict]) -> dict:
    """Fold a :func:`capacity_grid` run into one
    :class:`~repro.fleet.planner.CapacityPlan` per kind.

    ``rows`` maps point index to row, as
    :meth:`~repro.state.runner.SweepRunner.run` returns them inline or
    journaled.  Every kind of the grid gets a plan, in grid order, with
    its completed fleet sizes ascending; a kind whose points were all
    quarantined gets an empty, unattainable one.
    """
    from ..fleet.planner import CapacityPlan, CapacityPoint

    settings = {**_CAPACITY_IMPLICIT, **spec.points[0].params}
    curves: dict[str, list[CapacityPoint]] = {}
    for point in spec.points:
        curve = curves.setdefault(point.params["kind"], [])
        if point.index in rows:
            curve.append(CapacityPoint(**rows[point.index]))
    return {kind: CapacityPlan.from_points(kind, curve,
                                           settings["slo_ttft_s"],
                                           settings["percentile"])
            for kind, curve in curves.items()}


def attest_grid(kinds: tuple[str, ...] | None = None,
                scenarios: tuple[str, ...] = ("capacity", "chaos"),
                slo_ttft_s: float = 2.0,
                point_timeout_s: float | None = None) -> SweepSpec:
    """The attestation-tax table: one ``(kind, scenario)`` cell per point.

    :func:`~repro.tee.boot.attest_tax_sweep` is this grid run inline;
    ``kinds`` defaults to :data:`~repro.tee.boot.TAX_FLEET_KINDS`, and
    the default grid reproduces the ``golden.attest_tax`` snapshot.
    """
    from ..tee.boot import TAX_FLEET_KINDS

    kinds = _check_kinds(TAX_FLEET_KINDS if kinds is None else kinds)
    with _grid_numbers():
        guards.finite("slo_ttft_s", slo_ttft_s, gt=0)
    points = []
    for scenario in scenarios:
        for kind in kinds:
            points.append(GridPoint(
                index=len(points), key=f"{kind}/{scenario}",
                runner="attest_tax",
                params={"kind": kind, "scenario": scenario,
                        "slo_ttft_s": slo_ttft_s},
                group=kind))
    return SweepSpec(points=tuple(points),
                     point_timeout_s=point_timeout_s)
