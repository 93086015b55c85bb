"""The fleet and chaos CLIs refuse non-finite stream parameters.

A NaN or infinite ``--rate`` slips past a ``<= 0`` guard: a NaN
diurnal rate never lets the thinning loop return, and an infinite
Poisson rate puts every arrival at t=0.  Both must fail fast with the
generator's ``ValueError``.
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
def test_non_finite_rate_exits_with_value_error(argv):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "ValueError: " in result.stderr
    assert "must be finite" in result.stderr
