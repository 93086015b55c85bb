"""Every sweep CLI runs one grid: ``--resume DIR`` only adds the journal.

Each CLI runs without ``--resume``, with it into a fresh run directory,
and again on the finished directory (every row then comes back from the
journal).  All three must print the same rows; the journaled runs add
only their run-directory status line.
"""

import importlib.util
from pathlib import Path

import pytest

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
