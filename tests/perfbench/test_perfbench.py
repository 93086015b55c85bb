"""Smoke test of the ``perfbench`` harness at 1/250 scale.

It runs every workload in-process, traced and untraced, on two seeds,
and one run of a single workload against a tampered reference digest.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[2] / "perfbench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402

SCALE = 0.004
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def samples() -> dict:
    return {(entry["name"], seed, trace): worker.run_worker(
                entry["name"], seed, SCALE, trace)
            for entry in SPEC["workloads"] for seed in (11, 12)
            for trace in (False, True)}


def test_metric_names_and_units_match_benchmark_json(samples):
    for kind in ("end_to_end", "per_layer"):
        for entry in SPEC[kind]:
            assert NAME.match(entry["name"]), entry
            assert UNIT.match(entry["unit"]), entry
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for (_, _, trace), result in samples.items():
        measured = (run.per_layer([result]) if trace
                    else run.end_to_end([result]))
        kind = "per_layer" if trace else "end_to_end"
        assert {entry["name"] for entry in SPEC[kind]} <= set(measured)
        assert all(value == value for values in measured.values()
                   for value in values)  # no NaN


def test_traced_and_untraced_digests_agree(samples):
    from repro.fleet import FleetSimulator, LeastOutstandingRouter
    for entry in SPEC["workloads"]:
        for seed in (11, 12):
            plain = samples[(entry["name"], seed, False)]
            traced = samples[(entry["name"], seed, True)]
            assert not traced["absent"]
            assert run.check([plain, traced], {}, seed, SCALE) == []
            assert plain["digests"][0] == traced["digests"][0]
    # Every wrapper, including the discovered router's, was removed.
    assert not hasattr(FleetSimulator.run, "__wrapped__")
    assert not hasattr(LeastOutstandingRouter.choose, "__wrapped__")


def test_streams_of_a_seed_differ(samples):
    first = samples[("fleet_sparse", 11, False)]
    second = worker.run_worker("fleet_sparse", 11, SCALE, stream=1)
    assert run.check([first, second], {}, 11, SCALE) == []
    assert first["digests"][0] != second["digests"][0]


def test_missing_boundary_is_reported_absent():
    tracer = worker.Tracer()
    tracer.wrap(worker, "no_such_function", "missing")
    assert tracer.absent == ["worker.no_such_function"]
    assert worker._find("repro.no_such_module:Thing") is None
    assert worker._find("repro.fleet:NoSuchClass") is None


def test_tampered_reference_fails_the_run(samples):
    result = samples[("fleet_sparse", 11, False)]
    pinned = {"fleet_sparse": {"seed": 11, "scale": SCALE,
                               "digest": dict(result["digests"][0])}}
    assert run.check([result], pinned, 11, SCALE) == []
    pinned["fleet_sparse"]["digest"]["end_s"] = "1.0"
    args = argparse.Namespace(seed=11, trace=0, seconds=0)
    summary = run.bench("fleet_sparse", args, SPEC, pinned, scale=SCALE)
    assert summary["correct"] is False
    assert summary["attempted"] == 1 and summary["failed"] == 0
