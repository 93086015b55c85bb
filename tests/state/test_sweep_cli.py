"""Every sweep CLI runs one grid: ``--resume DIR`` only adds the journal.

Each CLI runs without ``--resume``, with it into a fresh run directory,
and again on the finished directory (every row then comes back from the
journal).  All three must print the same rows; the journaled runs add
only their run-directory status line.  A bad grid or ``--slo-ttft`` is
refused with exit 2 before any point runs, journaled or not, and so is
a bad number on the commands that run no grid.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.fleet import capacity_sweep
from repro.state import (
    StateValueError,
    SweepRunner,
    attest_grid,
    capacity_grid,
    chaos_grid,
)

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"

FLAGGED_SWEEP = ["sweep", "--arrivals", "poisson", "--count", "40",
                 "--percentile", "90", "--admission-lookahead", "2",
                 "--phased-boot"]


def _cli(name: str):
    spec = importlib.util.spec_from_file_location(
        f"_sweep_cli_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(text: str) -> list[str]:
    """Printed lines minus the journal status line and blank lines."""
    return [line for line in text.splitlines()
            if line.strip() and not line.startswith("run dir ")]


@pytest.mark.parametrize("script, argv", [
    ("chaos", ["sweep"]),
    ("fleet", ["sweep"]),
    ("fleet", FLAGGED_SWEEP),
    ("fleet", ["boot", "--tax"]),
], ids=["chaos-sweep", "fleet-sweep", "fleet-sweep-flags", "boot-tax"])
def test_resume_prints_the_inline_rows(script, argv, tmp_path, capsys):
    main = _cli(script).main
    assert main(argv) == 0
    inline = capsys.readouterr().out
    run_dir = str(tmp_path / "run")
    for _ in range(2):  # fresh directory, then the finished one
        assert main([*argv, "--resume", run_dir]) == 0
        journaled = capsys.readouterr().out
        assert "run dir " in journaled
        assert _rows(journaled) == _rows(inline)


@pytest.mark.parametrize("script, argv", [
    ("chaos", ["sweep", "--kinds", "tdx,tdx"]),
    ("fleet", ["sweep", "--kinds", "tdx,tdx"]),
], ids=["chaos-sweep", "fleet-sweep"])
def test_bad_grid_is_one_line_and_exit_2(script, argv, capsys):
    assert _cli(script).main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{script}.py sweep: grid point keys must be unique\n"


@pytest.mark.parametrize("script, argv", [
    ("chaos", ["sweep"]),
    ("fleet", ["sweep"]),
    ("fleet", ["boot", "--tax"]),
], ids=["chaos-sweep", "fleet-sweep", "boot-tax"])
def test_resume_into_another_spec_is_one_line_and_exit_2(script, argv,
                                                         tmp_path, capsys):
    run_dir = tmp_path / "run"
    SweepRunner.create(run_dir, capacity_grid(kinds=("tdx",),
                                              max_replicas=1))
    assert _cli(script).main([*argv, "--resume", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "already holds a different sweep spec" in err


@pytest.mark.parametrize("script, argv", [
    ("chaos", ["sweep", "--kinds", "tdx,nope"]),
    ("fleet", ["sweep", "--kinds", "tdx,nope"]),
    ("fleet", ["boot", "--kinds", "tdx,nope"]),
], ids=["chaos-sweep", "fleet-sweep", "boot"])
def test_unknown_kind_is_one_line_and_exit_2(script, argv, capsys):
    """Refused before any point runs: nothing reaches stdout."""
    assert _cli(script).main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{script}.py {argv[0]}: ")
    assert captured.err.count("\n") == 1
    assert "'nope'" in captured.err


@pytest.mark.parametrize("grid", ["abc", "12,-1", "nan", "6,"])
def test_chaos_sweep_refuses_a_bad_mtbf_grid(grid, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _cli("chaos").main(["sweep", "--mtbf", grid])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --mtbf" in err and "Traceback" not in err


def test_grids_refuse_unknown_kinds():
    for build in (capacity_grid, chaos_grid, attest_grid):
        with pytest.raises(StateValueError, match="unknown replica kind"):
            build(kinds=("tdx", "nope"))


def test_capacity_grid_refuses_unknown_arrivals():
    with pytest.raises(StateValueError,
                       match="unknown arrival process 'nope'"):
        capacity_grid(arrivals="nope")


@pytest.mark.parametrize("script, argv", [
    ("fleet", ["run", "--rate", "0"]),
    ("fleet", ["run", "--count", "2.5"]),
    ("fleet", ["run", "--replicas", "0"]),
    ("fleet", ["autoscale", "--cooldown", "-1"]),
    ("fleet", ["autoscale", "--max-replicas", "0"]),
    ("fleet", ["tenants", "--rate", "nan"]),
    ("fleet", ["tenants", "--kv-capacity", "8"]),
    ("chaos", ["run", "--timeout", "0"]),
    ("chaos", ["run", "--mtbf", "-5"]),
    ("chaos", ["run", "--max-attempts", "0"]),
    ("chaos", ["run", "--requests", "0"]),
])
def test_bad_run_number_stops_at_argparse(script, argv, capsys):
    """Commands that run no grid refuse a bad number at argparse: one
    usage error naming the flag, exit 2, no traceback."""
    with pytest.raises(SystemExit) as exit_info:
        _cli(script).main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[1]}: {argv[2]!r} is not " in captured.err
    assert "Traceback" not in captured.err


def test_chaos_sweep_rejects_max_attempts():
    """The sweep's grid has no retry-attempt knob, so the flag is
    ``run``'s alone."""
    with pytest.raises(SystemExit) as exit_info:
        _cli("chaos").main(["sweep", "--max-attempts", "1"])
    assert exit_info.value.code == 2


def test_fleet_sweep_rejects_router():
    with pytest.raises(SystemExit) as exit_info:
        _cli("fleet").main(["sweep", "--router", "cost-slo"])
    assert exit_info.value.code == 2


def test_default_capacity_grid_keeps_the_journaled_params():
    """A default sweep's spec equals the one older run directories hold,
    so ``--resume`` on them does not hit "different sweep spec"."""
    spec = capacity_grid(kinds=("tdx",), max_replicas=1)
    assert spec.points[0].params == {"kind": "tdx", "replicas": 1,
                                     "slo_ttft_s": 2.0, "trace": "capacity"}
    flagged = capacity_grid(kinds=("tdx",), max_replicas=1, percentile=90,
                            admission_lookahead=2, phased_boot=True)
    assert flagged.points[0].params == {
        "kind": "tdx", "replicas": 1, "slo_ttft_s": 2.0, "trace": "capacity",
        "percentile": 90, "admission_lookahead": 2, "phased_boot": True}


def test_capacity_sweep_returns_the_cli_plans(tmp_path, capsys):
    """``capacity_sweep()`` is the grid ``fleet.py sweep`` runs, folded
    the same way, inline and journaled."""
    plans = {kind: plan.to_dict()
             for kind, plan in capacity_sweep(max_replicas=6).items()}
    main = _cli("fleet").main
    written = tmp_path / "plan.json"
    for resume in ([], ["--resume", str(tmp_path / "run")]):
        assert main(["sweep", "--json", str(written), *resume]) == 0
        assert json.loads(written.read_text()) == plans
    capsys.readouterr()


@pytest.mark.parametrize("script, argv, field", [
    ("fleet", ["sweep", "--percentile", "150"], "percentile"),
    ("fleet", ["sweep", "--arrivals", "poisson", "--rate", "0"], "rate_rps"),
    ("fleet", ["sweep", "--arrivals", "poisson", "--count", "0"],
     "num_requests"),
    ("chaos", ["sweep", "--requests", "0"], "num_requests"),
    ("chaos", ["sweep", "--rate", "0"], "rate_rps"),
    ("chaos", ["sweep", "--replicas", "0"], "replicas"),
    ("chaos", ["sweep", "--timeout", "0"], "timeout_s"),
    ("chaos", ["sweep", "--horizon", "0"], "horizon_s"),
])
def test_bad_grid_number_is_one_line_and_exit_2(script, argv, field,
                                                tmp_path, capsys):
    """Refused when the grid is built: nothing reaches stdout, and a
    journaled run makes no run directory."""
    run_dir = tmp_path / "run"
    for resume in ([], ["--resume", str(run_dir)]):
        assert _cli(script).main([*argv, *resume]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{script}.py sweep: {field} must be ")
        assert captured.err.count("\n") == 1
    assert not run_dir.exists()


@pytest.mark.parametrize("slo", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("script, argv", [
    ("fleet", ["run"]),
    ("fleet", ["autoscale"]),
    ("fleet", ["sweep"]),
    ("fleet", ["boot", "--tax"]),
    ("chaos", ["run"]),
    ("chaos", ["sweep", "--mtbf", "none", "--resume"]),
], ids=["fleet-run", "fleet-autoscale", "fleet-sweep", "boot-tax",
        "chaos-run", "chaos-sweep-resume"])
def test_bad_slo_ttft_stops_at_argparse(script, argv, slo, tmp_path, capsys):
    run_dir = tmp_path / "run"
    if argv[-1] == "--resume":
        argv = [*argv, str(run_dir)]
    with pytest.raises(SystemExit) as exit_info:
        _cli(script).main([*argv, "--slo-ttft", slo])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --slo-ttft" in captured.err
    assert "Traceback" not in captured.err
    assert not run_dir.exists()


def test_grids_refuse_bad_numbers():
    cases = [
        (capacity_grid, {"slo_ttft_s": 0.0}, "slo_ttft_s"),
        (capacity_grid, {"percentile": -1}, "percentile"),
        (capacity_grid, {"max_replicas": 0}, "max_replicas"),
        (capacity_grid, {"admission_lookahead": -1}, "admission_lookahead"),
        (capacity_grid, {"arrivals": "poisson", "mean_prompt": 0},
         "mean_prompt"),
        (chaos_grid, {"mean_output": 0}, "mean_output"),
        (chaos_grid, {"slo_ttft_s": float("nan")}, "slo_ttft_s"),
        (chaos_grid, {"mtbf_grid_s": (None, -6.0)}, "mtbf_s"),
        (attest_grid, {"slo_ttft_s": True}, "slo_ttft_s"),
    ]
    for build, arguments, field in cases:
        with pytest.raises(StateValueError, match=f"^{field} must be "):
            build(**arguments)

