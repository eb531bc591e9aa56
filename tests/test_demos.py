"""The demo scripts run to completion from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from rtsched import load_document, run_simulation

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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_vision_pipeline_drains():
    """At 2 s the run ends with 17 jobs released and 13 completed, at 10 s
    with 93 and 83; at 1 s, 3 s and 5 s it completes.  Dataflow liveness
    (ROADMAP item 1) should make every horizon drain."""
    doc = load_document(str(ROOT / "demos" / "vision_pipeline.json"))
    truncated = [
        horizon for horizon in ("2s", "10s")
        if run_simulation(doc.build_state(), doc.sim_model(), horizon=horizon,
                          keep_trace=False)[1].truncated
    ]
    assert truncated == []
