"""The package surface others rely on: every exported name imports, and
every function the benchmark's spans wrap (perfbench/spans.py TARGETS)
still exists, so deleting one fails here rather than in a traced run."""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import rtsched

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")

# Each script runs in a fresh interpreter: the test session has run every module.
_FIRST_USE_SCRIPT = """
import sys
import rtsched, rtsched.cli

def ran(modname, defined):
    \"\"\"Whether a module's own code has run, read without running it.\"\"\"
    return defined in object.__getattribute__(sys.modules[modname], "__dict__")

assert rtsched.cli.main(["simulate", "demos/drone.json", "--horizon", "100ms"]) == 0
done = [m for m, d in (("rtsched.realtime", "run_realtime"), ("rtsched.sweep", "run_sweep"))
        if ran(m, d)]
assert not done, f"a simulate run ran {done}"

assert rtsched.realtime is sys.modules["rtsched.realtime"]
assert rtsched.sweep is sys.modules["rtsched.sweep"]
for name in ("processor_preflight", "run_realtime"):
    assert getattr(rtsched, name) is getattr(rtsched.realtime, name), name
assert not ran("rtsched.sweep", "run_sweep")
for name in ("SWEEP_COLUMNS", "SweepSpec", "best_policy", "make_restrict", "run_sweep",
             "write_sweep_csv"):
    assert getattr(rtsched, name) is getattr(rtsched.sweep, name), name
try:
    rtsched.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'rtsched' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("an unknown name resolved")
"""

# perfbench's traced mode wraps its span targets right after its set-up
# import, looking each target's module up in sys.modules.
_TRACER_SCRIPT = """
import sys
sys.path.insert(0, "perfbench")
import run

run.fresh_import()
tracer = run.Tracer()
tracer.install()
tracer.uninstall()
"""


def _fresh(script: str) -> None:
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")), timeout=60,
    )
    assert done.returncode == 0, done.stderr


def _span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_all_names_import():
    assert len(set(rtsched.__all__)) == len(rtsched.__all__)
    namespace: dict = {}
    exec("from rtsched import *", namespace)
    assert set(rtsched.__all__) <= namespace.keys()


def test_simulate_loads_neither_the_thread_backend_nor_the_sweep():
    """`import rtsched, rtsched.cli` and a simulate run leave the code of
    the thread backend and the sweep unrun; their package names run it on
    first use and give the defining module's objects."""
    _fresh(_FIRST_USE_SCRIPT)


def test_perfbench_tracer_installs_after_its_set_up_import():
    """Every span target's module is in sys.modules once perfbench's
    set-up has imported `rtsched` and `rtsched.cli`."""
    _fresh(_TRACER_SCRIPT)


@pytest.mark.parametrize(
    "modname, path",
    [(modname, path) for _, modname, path, _ in _span_targets()],
    ids=lambda v: v,
)
def test_span_target_resolves(modname, path):
    obj = importlib.import_module(modname)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)
