"""The package surface others rely on: every exported name imports, and
every function the benchmark's spans wrap (perfbench/spans.py TARGETS)
still exists, so deleting one fails here rather than in a traced run."""

import importlib
import importlib.util
import os

import pytest

import rtsched

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


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
