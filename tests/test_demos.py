"""Smoke test: every demo script runs to exit 0 against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_detector_comparison.py"}  # about 30 s of Monte Carlo


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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
