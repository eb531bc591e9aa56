"""The package surface others rely on: the exported names are exactly the
ones README's Library section lists, internal names stay in their own
modules, and every function the benchmark's spans wrap
(perfbench/spans.py TARGETS) still exists, so deleting one fails here
rather than in a traced run."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys

import pytest

import rtsched

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")
README = os.path.join(ROOT, "README.md")

# Names the package no longer exports, by defining module: scheduler
# internals and helpers that are neither declaration calls nor documented.
INTERNAL = {
    "model": ["AcceleratorDescriptor", "MS", "Phase", "US"],
    "priority": ["PriorityKey", "assign_priority"],
    "graph": ["ChannelDescriptor", "ChannelState", "ExpansionPlan", "GraphInfo",
              "analyze_graph", "plan_expansion", "repetition_vector"],
    "versions": ["AcceleratorRegistry", "SelectionContext", "eligible_versions",
                 "select_version"],
    "online": ["Job", "SchedulerCore", "hyperperiod", "scheduler_tick_period"],
    "offline": ["TableEntry", "validate_table"],
    "tracing": ["EVENT_KINDS", "Overheads", "SCHEDULER_WORKER", "TaskStats",
                "write_trace_csv"],
    "simulator": ["parse_horizon", "policy_label"],
    "realtime": ["processor_preflight"],
    "sweep": ["SWEEP_COLUMNS", "make_restrict"],
}

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
assert rtsched.run_realtime is rtsched.realtime.run_realtime
assert not ran("rtsched.sweep", "run_sweep")
for name in ("SweepSpec", "best_policy", "run_sweep", "write_sweep_csv"):
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


def _readme_names() -> list[str]:
    """The names of the bulleted list in README's Library section."""
    with open(README, encoding="utf-8") as f:
        section = f.read().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- **"):].split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", bullets)


def test_all_names_import():
    assert len(set(rtsched.__all__)) == len(rtsched.__all__)
    namespace: dict = {}
    exec("from rtsched import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(rtsched.__all__)


def test_exports_are_the_readme_list():
    listed = _readme_names()
    assert len(listed) == len(set(listed)) == 65
    assert set(rtsched.__all__) == set(listed)


@pytest.mark.parametrize("modname, name",
                         [(m, n) for m, names in INTERNAL.items() for n in names],
                         ids=lambda v: v)
def test_internal_name_stays_in_its_module(modname, name):
    with pytest.raises(AttributeError):
        getattr(rtsched, name)
    assert hasattr(importlib.import_module(f"rtsched.{modname}"), name)


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
