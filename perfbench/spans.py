"""Spans around rtsched's public entry points, recorded from outside.

Tracer.install() replaces each listed function or method with a wrapper
that times the call on a span stack.  A span's self time is its duration
minus the time of the spans nested in it.  Every call is added to a
per-name aggregate (calls, total, self); spans of the coarse entry points
(one per document load, build, simulation, export) are also kept whole
(name, start, end, parent, operation id) so they can be written out when
the run ends.  Hot entry points (dispatch, sort, channel scans) are only
aggregated: keeping millions of spans would measure the tracer.

Calls made on another thread than the installing one, and calls made
outside an operation (the benchmark's own output checks), pass straight
through untimed.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter_ns

# (span name, module, attribute path, keep whole spans)
TARGETS = [
    ("cli.main", "rtsched.cli", "main", True),
    ("document.load", "rtsched.document", "load_document", True),
    ("document.load", "rtsched.document", "TaskSetDocument.from_dict", False),
    ("document.build", "rtsched.document", "TaskSetDocument.build_state", True),
    ("model.validate", "rtsched.model", "MiddlewareState.validate", True),
    ("graph.analyze", "rtsched.graph", "analyze_graph", True),
    ("graph.expand", "rtsched.graph", "expand_sdf", True),
    ("graph.channel_scan", "rtsched.graph", "input_channels", False),
    ("graph.channel_scan", "rtsched.graph", "output_channels", False),
    ("graph.check_activation", "rtsched.graph", "check_activation", False),
    ("graph.reserve_activation", "rtsched.graph", "reserve_activation", False),
    ("online.due_releases", "rtsched.online", "SchedulerCore.due_releases", False),
    ("online.graph_activations", "rtsched.online", "SchedulerCore.graph_activations", False),
    ("online.make_job", "rtsched.online", "SchedulerCore.make_job", False),
    ("online.pick_next", "rtsched.online", "SchedulerCore.pick_next", False),
    ("online.sort", "rtsched.online", "ReadyQueue.sort", False),
    ("online.unblock", "rtsched.online", "SchedulerCore.unblock_accel_waiters", False),
    ("priority.assign", "rtsched.priority", "assign_priority", False),
    ("versions.select", "rtsched.versions", "select_version", False),
    ("versions.acquire", "rtsched.versions", "AcceleratorRegistry.acquire", False),
    ("versions.inherit", "rtsched.versions", "AcceleratorRegistry.apply_inheritance", False),
    ("simulator.run", "rtsched.simulator", "run_simulation", True),
    ("tracing.overheads", "rtsched.tracing", "compute_overheads", True),
    ("tracing.csv", "rtsched.tracing", "write_trace_csv", True),
    ("tracing.report", "rtsched.tracing", "RunReport.to_dict", True),
    ("sweep.run", "rtsched.sweep", "run_sweep", True),
    ("sweep.csv", "rtsched.sweep", "write_sweep_csv", True),
    ("realtime.run", "rtsched.realtime", "run_realtime", True),
]


class Agg:
    __slots__ = ("calls", "total_ns", "self_ns", "hits", "sum")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.hits = 0  # probe-defined count (idle picks, busy acquires, ...)
        self.sum = 0  # probe-defined sum (queue lengths, ...)


def _probe_pick(agg: Agg, args, result) -> None:
    if result[0] == "idle":
        agg.hits += 1


def _probe_sort(agg: Agg, args, result) -> None:
    agg.sum += len(args[0])


def _probe_acquire(agg: Agg, args, result) -> None:
    if result:
        agg.hits += 1


def _probe_run(agg: Agg, args, result) -> None:
    trace, report = result
    agg.hits += report.completed
    agg.sum += len(trace)


PROBES = {
    "online.pick_next": _probe_pick,
    "online.sort": _probe_sort,
    "versions.acquire": _probe_acquire,
    "simulator.run": _probe_run,
}


class Tracer:
    def __init__(self) -> None:
        self.owner = threading.get_ident()
        self.op: int | None = None  # operation id while an operation runs
        self.stack: list[list] = []  # [start_ns, child_ns, kept span index]
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, op)
        self.aggs: dict[str, Agg] = {}
        self._patched: list[tuple] = []

    def agg(self, name: str) -> Agg:
        return self.aggs.setdefault(name, Agg())

    def _wrap(self, name: str, fn, keep: bool):
        agg = self.agg(name)
        probe = PROBES.get(name)
        stack = self.stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            if self.op is None or threading.get_ident() != self.owner:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            index = len(spans) if keep else parent
            if keep:
                spans.append(None)  # reserved so children see their parent's index
            frame = [perf_counter_ns(), 0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                agg.calls += 1
                agg.total_ns += dur
                agg.self_ns += dur - frame[1]
                if keep:
                    spans[index] = (name, frame[0], end, parent, self.op)
            if probe is not None:
                probe(agg, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target, in its own module and wherever it was imported."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "rtsched" or n.startswith("rtsched."))]
        for name, modname, path, keep in TARGETS:
            owner = sys.modules[modname]
            holder_path, _, attr = path.rpartition(".")
            if holder_path:
                holder = getattr(owner, holder_path)
                fn = holder.__dict__[attr]
                if isinstance(fn, classmethod):
                    wrapped = classmethod(self._wrap(name, fn.__func__, keep))
                else:
                    wrapped = self._wrap(name, fn, keep)
                self._patched.append((holder, attr, fn))
                setattr(holder, attr, wrapped)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn, keep)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()
