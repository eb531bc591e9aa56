"""Pinned outputs do not depend on Python's string hash seed.

A few golden digests are recomputed in fresh interpreters under other
PYTHONHASHSEED values, so iterating a set or a str-keyed structure in hash
order anywhere on the path would show as a moved digest.
"""

import os
import subprocess
import sys

from .test_golden import GOLDEN, SWEEP_GOLDEN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_CASES = ("scripted-modes", "offline-table")
_SWEEP = "energy-time-rm-dm-edf"

_SCRIPT = f"""
import io
import rtsched.sweep as sweep_mod
from rtsched import run_sweep, write_sweep_csv
from tests.test_golden import GOLDEN, SWEEP_GOLDEN, _sha, digests

sweep_mod.available_cpus = lambda: 1  # the whole sweep in this process
for case in {_CASES!r}:
    print(*digests(GOLDEN[case][0]))
out = io.StringIO()
write_sweep_csv(run_sweep(*SWEEP_GOLDEN[{_SWEEP!r}][0]()), out)
print(_sha(out.getvalue()))
"""


def test_pinned_digests_hold_under_other_hash_seeds():
    want = [" ".join(GOLDEN[case][1:]) for case in _CASES] + [SWEEP_GOLDEN[_SWEEP][1]]
    path = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    procs = {
        seed: subprocess.Popen(
            [sys.executable, "-c", _SCRIPT], cwd=ROOT, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
        )
        for seed in ("1", "4242")
    }
    for seed, proc in procs.items():
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, f"PYTHONHASHSEED={seed}"
        assert out.splitlines() == want, f"PYTHONHASHSEED={seed}"
