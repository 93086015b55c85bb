"""The fleet and chaos CLIs refuse non-finite stream parameters.

A NaN or infinite ``--rate`` slips past a ``<= 0`` guard: a NaN
diurnal rate never lets the thinning loop return, and an infinite
Poisson rate puts every arrival at t=0.  Both must fail fast: argparse
refuses them (``repro.guards.number_arg``) with one usage error naming
the flag and exit 2, before any stream is generated.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("argv", [
    ["fleet.py", "run", "--arrivals", "diurnal", "--rate", "nan"],
    ["chaos.py", "run", "--rate", "inf"],
])
def test_non_finite_rate_stops_at_argparse(argv):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert f"argument --rate: {argv[-1]!r} is not finite" in result.stderr
    assert "Traceback" not in result.stderr
