"""The demo scripts run to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name, line", [
    ("priority_inheritance.py", "high task blocked 8ms with inheritance, 28ms without"),
    ("lock_scaling.py", None),
])
def test_demo_runs(name, line):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    if line is not None:
        assert line in done.stdout.splitlines()
