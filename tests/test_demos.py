"""Smoke test: every demo script runs to exit 0 against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_detector_comparison.py"}  # Monte Carlo, about 4 s on 2 vCPUs


def _marked(path):
    marks = [pytest.mark.slow] if path.name in SLOW else []
    return pytest.param(path, id=path.stem, marks=marks)


def test_every_demo_listed():
    assert [p.name for p in DEMOS] == [
        "01_stream_alignment.py",
        "02_joint_delay_estimation.py",
        "03_drift_selection.py",
        "04_detector_comparison.py",
    ]


@pytest.mark.parametrize("demo", [_marked(p) for p in DEMOS])
def test_demo_runs(demo):
    # dev mode, as CI runs the fast tier, and every RuntimeWarning (numpy
    # overflow or invalid value, a zero-correlation delay) is an error
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", str(demo)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
