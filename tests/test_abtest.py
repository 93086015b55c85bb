"""Smoke test of the paired A/B harness, ``scripts/abtest.py``.

The working tree runs against itself at the smallest setting (two
pairs of one-worker perfbench runs of the shortest workload); the test
checks the report's shape, not any speed.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _abtest():
    spec = importlib.util.spec_from_file_location(
        "_abtest", ROOT / "scripts" / "abtest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("wins, losses, p", [
    (0, 0, 1.0), (1, 1, 1.0), (5, 0, 0.0625), (0, 5, 0.0625),
    (9, 1, 22 / 1024), (10, 0, 2 / 1024)])
def test_sign_test_is_exact(wins, losses, p):
    assert _abtest().sign_test_p(wins, losses) == p


def test_working_tree_against_itself(tmp_path, capsys):
    written = tmp_path / "ab.json"
    assert _abtest().main([str(ROOT), str(ROOT), "--workload",
                           "fleet_long_prompt", "--pairs", "2",
                           "--seconds", "0", "--json", str(written)]) == 0
    report = json.loads(written.read_text())
    assert json.loads(capsys.readouterr().out) == report
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(report["metrics"]) == {metric["name"]
                                      for metric in spec["end_to_end"]}
    for metric in report["metrics"].values():
        assert metric["pairs"] == 2 and 0 <= metric["head_wins"] <= 2
        assert 0 < metric["sign_test_p"] <= 1
        for side in ("base", "head"):
            summary = metric[side]
            assert len(summary["values"]) == 2
            assert summary["q1"] <= summary["median"] <= summary["q3"]
    assert report["first"] == ["base", "head"]
    assert report["correct"] == {"base": [True, True], "head": [True, True]}
    assert report["failed"] == {"base": [0, 0], "head": [0, 0]}
