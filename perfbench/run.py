"""rtsched benchmark: from a task-set document to a report, and thread-backend latency.

Run from the root of a checkout:

    python3 perfbench/run.py --workload periodic --seed 1 --seconds 15 --trace 0

Workloads, their generator parameters and the layers each one exercises are
recorded in perfbench/workloads.json; metric names and units in
BENCHMARK.json.  The benchmark generates seeded documents, then drives them
through the public CLI (rtsched.cli.main) and API (run_realtime) in this
process, repeating the workload's operations for --seconds.  Every
operation's outputs are checked, and the SHA-256 of every virtual-time
trace and report is printed.

--trace 0 prints the end-to-end metrics; peak memory comes from a spawned
child process that makes one pass over the operations.  --trace 1 runs the
operations untraced and then as often again with spans around each
module's public entry points (perfbench/spans.py); it prints the per-layer
metrics derived from the spans and checks that the traced run reproduced
the untraced digests.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

Exit status: 0 with a result; 2 when the package source (src/rtsched) or
BENCHMARK.json is missing; 3 when rt-latency is skipped for lack of
processors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import heapq
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

WORK = ".perfbench_work"  # outputs of the operations, under the checkout root
SETUP_REPS = 9  # set-up is repeated and its median reported
MIN_CYCLES = 3  # a run makes at least this many passes over its operations
SWEEP_ROWS_PER_RUN = 6  # metric rows per sweep run (released .. truncated)

# The speed of a shared host drifts by up to 2x over tens of seconds, in
# process CPU time as much as in wall time, so no run length averages it
# out.  CPU-bound durations are therefore scaled by a fixed reference job,
# timed around every stretch of at least REF_EVERY_S seconds of operations
# (at most one pass) and around every set-up:
#     scaled = measured * REF_SECONDS / (mean of the two reference timings
#                                        either side of it)
# and read as seconds on a host where the reference job takes REF_SECONDS.
# The reference job is a small simulation with a trace of a few megabytes:
# a cache-sized job tracked the drift of the real operations less well.
# Host speed flips between a fast and a slow state within seconds; the two
# timings either side of an operation follow it with a correlation of 0.85,
# one timing per pass followed it less well.  A run's time is the sum of its
# scaled stretches.
# The thread backend's runs last as long as the clock says, so its rates
# stay as measured.  Its release-to-start latency is mostly the operating
# system waking the scheduler and worker threads; that drifts by up to
# 1.6x within a minute on a shared host and the reference job's speed does
# not follow it.  It is scaled instead by a wake-up reference, run before
# every thread-backend run: two bare Python threads in the probe's shape
# (a clock thread sleeping to each period boundary and notifying a
# condition, a worker waiting on it), whose median release-to-wake time
# tracked the probe's within +-8% while both drifted by 1.6x:
#     scaled = measured p50 * REF_WAKE_US / (median wake-up reference)
# Both reference jobs are benchmark code that import nothing from rtsched;
# changing one of them or its constant rescales the metrics it scales.
REF_SECONDS = 0.08
REF_EVENTS = 20_000
REF_EVERY_S = 0.5
REF_WAKE_US = 150.0
REF_WAKE_PERIOD_NS = 1_000_000
REF_WAKE_RELEASES = 1000


class _RefEvent:
    __slots__ = ("t", "task", "seq", "payload")

    def __init__(self, t: int, task: str, seq: int, payload: dict):
        self.t, self.task, self.seq, self.payload = t, task, seq, payload


def _reference_job() -> float:
    """A heap-driven event loop over 64 tasks that keeps every event, then
    sorts the log and writes it as CSV text."""
    t0 = perf_counter()
    names = [f"t{i:03d}" for i in range(64)]
    heap = [(i * 7 % 100, i, i % 64) for i in range(256)]
    heapq.heapify(heap)
    log, counts, seq = [], {}, 256
    for _ in range(REF_EVENTS):
        t, _, who = heapq.heappop(heap)
        n = counts.get(who, 0) + 1
        counts[who] = n
        log.append(_RefEvent(t, names[who], n, {"n": n, "w": who & 3}))
        seq += 1
        heapq.heappush(heap, (t + (who * 13 + seq) % 997 + 1, seq, who))
    log.sort(key=lambda e: (e.seq, e.t))
    text = "".join(
        f"{e.t},run,{e.task},{e.seq},{';'.join(f'{k}={v}' for k, v in e.payload.items())}\n"
        for e in log
    )
    if len(text) < REF_EVENTS:
        raise AssertionError("reference job lost events")
    return perf_counter() - t0


def _timed_reference() -> float:
    """Time the reference job with the cyclic collector paused, so that
    garbage left by the operation before is collected in the operation
    after, as it would be without the benchmark."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _reference_job()
    finally:
        if enabled:
            gc.enable()


def _wake_reference() -> list[int]:
    """Nanoseconds from each period boundary to the wake-up of a worker
    thread notified at it, over REF_WAKE_RELEASES periods."""
    cond = threading.Condition()
    due: list[int] = []
    lat: list[int] = []
    done = threading.Event()
    t0 = time.monotonic_ns()

    def clock() -> None:
        for k in range(1, REF_WAKE_RELEASES + 1):
            target = t0 + k * REF_WAKE_PERIOD_NS
            while (left := target - time.monotonic_ns()) > 0:
                time.sleep(min(left / 1e9, 0.001))
            with cond:
                due.append(target)
                cond.notify_all()
        done.set()
        with cond:
            cond.notify_all()

    def worker() -> None:
        while True:
            with cond:
                while not due and not done.is_set():
                    cond.wait(timeout=0.001)
                items = due[:]
                del due[:]
            now = time.monotonic_ns()
            lat.extend(now - t for t in items)
            if done.is_set() and not due:
                return

    threads = [threading.Thread(target=clock), threading.Thread(target=worker)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return lat


def in_child(call: str, *args: str, cwd: str | None = None) -> str:
    """Run `call` of this module in a fresh interpreter, wait for it, and
    return the last line it printed."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import run;"
            f" print(run.{call}(*sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, capture_output=True,
                         text=True, timeout=150, check=True)
    return out.stdout.strip().splitlines()[-1]


class HostSpeed:
    """Reference-job timings of one run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wake_ns: list[int] = []

    def sample(self) -> None:
        self.samples.append(_timed_reference())

    def sample_wake(self) -> None:
        self.wake_ns.extend(_wake_reference())

    def scaled_each(self, spans: list[float]) -> list[float]:
        """spans[i] was measured between samples[i] and samples[i + 1]."""
        return [x * 2 * REF_SECONDS / (a + b)
                for x, a, b in zip(spans, self.samples, self.samples[1:])]

    def wake_scale(self) -> float:
        return REF_WAKE_US * 1000 / statistics.median(self.wake_ns)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fresh_import():
    """Import rtsched from ./src, dropping any earlier import of it, so that
    each set-up pays for the package import."""
    for name in [m for m in sys.modules if m == "rtsched" or m.startswith("rtsched.")]:
        del sys.modules[name]
    import rtsched
    import rtsched.cli  # noqa: F401

    return rtsched


@contextlib.contextmanager
def operation(tracer: Tracer | None, op_id: int):
    """Spans are recorded only inside the timed call, never in the checks."""
    if tracer is not None:
        tracer.op = op_id
    try:
        yield
    finally:
        if tracer is not None:
            tracer.op = None


# ------------------------------------------------------------ operations


@dataclass
class Outcome:
    """One timed operation and the checks on its outputs."""

    seconds: float  # measured host seconds
    attempted: int  # 1 per CLI invocation, sweep point or probe release
    failed: int = 0
    jobs: int = 0  # completed jobs
    points: int = 1  # simulated or real runs
    problems: list[str] = field(default_factory=list)  # failed output checks
    errors: list[str] = field(default_factory=list)  # operations that did not complete
    digests: dict[str, str] = field(default_factory=dict)
    events: int = 0  # trace events re-read from the CSV
    csv_bytes: int = 0
    latencies_ns: list[int] = field(default_factory=list)
    trace: list = field(default_factory=list)  # thread-backend trace, traced runs only
    warnings: list[str] = field(default_factory=list)


def call_cli(rt, argv: list[str], tracer: Tracer | None, op_id: int) -> tuple[int, float]:
    out = io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        with operation(tracer, op_id):
            t0 = perf_counter()
            try:
                rc = rt.cli.main(argv)
            except Exception:  # a crash fails the operation, not the benchmark
                rc, crash = -1, traceback.format_exc()
            seconds = perf_counter() - t0
    if crash is not None:
        print(crash, file=sys.stderr)
    return rc, seconds


def check_simulate(rt, op: gen.Op, rc: int, seconds: float) -> Outcome:
    res = Outcome(seconds, attempted=1)
    if rc != 0:
        res.failed = 1
        res.errors.append(f"{op.name}: exit status {rc}")
        return res
    with open(f"{op.name}.report.json", "rb") as fp:
        raw = fp.read()
    res.digests["report"] = sha(raw)
    report = json.loads(raw)
    totals, tasks = report["totals"], report["tasks"].values()
    for key in ("released", "completed", "misses"):
        if totals[key] != sum(t[key] for t in tasks):
            res.problems.append(f"{op.name}: total {key} differs from the per-task sum")
    truncated = totals["truncated"]
    if not truncated and totals["released"] != totals["completed"]:
        res.problems.append(f"{op.name}: released != completed in an untruncated run")
    if op.trace:
        with open(f"{op.name}.trace.csv", "rb") as fp:
            raw = fp.read()
        res.digests["trace"] = sha(raw)
        res.csv_bytes = len(raw)
        events = rt.read_trace_csv(io.StringIO(raw.decode()))
        res.events = len(events)
        if rt.compute_overheads(events, allow_truncated=truncated).to_dict() != report["run"]:
            res.problems.append(f"{op.name}: overheads of the re-read trace differ from the report")
    res.jobs = totals["completed"]
    res.failed = int(truncated or bool(res.problems))
    return res


def check_sweep(spec: dict, op: gen.Op, rc: int, seconds: float) -> Outcome:
    runs = (len(spec["mappings"]) * len(spec["priorities"]) * len(spec["preemptive"])
            * len(spec["version_modes"]) * spec["reps"])
    res = Outcome(seconds, attempted=runs, points=runs)
    if rc != 0:
        res.failed = runs
        res.errors.append(f"{op.name}: exit status {rc}")
        return res
    with open(f"{op.name}.csv", "rb") as fp:
        raw = fp.read()
    res.digests["csv"] = sha(raw)
    rows = list(csv.DictReader(io.StringIO(raw.decode())))
    if len(rows) != runs * SWEEP_ROWS_PER_RUN:
        res.problems.append(f"{op.name}: {len(rows)} rows, expected {runs} x {SWEEP_ROWS_PER_RUN}")
    by_run: dict[tuple, dict[str, float]] = {}
    for row in rows:
        key = (row["mapping"], row["priority"], row["preemptive"], row["version_mode"], row["rep"])
        by_run.setdefault(key, {})[row["metric"]] = float(row["value"])
    for key, values in by_run.items():
        bad = values["truncated"] != 0
        if not bad and values["released"] != values["completed"]:
            res.problems.append(f"{op.name} {key}: released != completed in an untruncated run")
            bad = True
        res.failed += bad
        res.jobs += int(values["completed"])
    if res.problems:
        res.failed = max(res.failed, 1)
    return res


def probe_state(rt, p: dict):
    """One empty periodic probe on the thread backend, the shape of
    rtsched.realtime.latency_probe."""
    cfg = rt.PolicyConfig(
        mapping_scheme=rt.MappingScheme.GLOBAL,
        priority_assignment=rt.PriorityAssignment.EDF,
        worker_count=p["workers"],
        clock_source=rt.ClockSource.MONOTONIC_OS,
        version_selection=rt.VersionSelection.PRESELECTED,
    )
    state = rt.init(cfg)
    tid = rt.task_decl(state, "probe0", rt.TaskKind.PERIODIC, period=p["period_us"] * 1000)
    rt.version_decl(state, tid, entry=lambda ctx, args: None, wcet_estimate=1000)
    return state


def run_probe(rt, p: dict, tracer: Tracer | None, op_id: int) -> Outcome:
    state = probe_state(rt, p)
    with operation(tracer, op_id):
        t0 = perf_counter()
        trace, report = rt.run_realtime(state, p["period_us"] * 1000 * p["releases"])
        seconds = perf_counter() - t0
    released: dict[tuple, int] = {}
    started: dict[tuple, int] = {}
    for ev in trace:
        if ev.kind == "release_theoretical":
            released[(ev.task, ev.job_seq)] = ev.timestamp_ns
        elif ev.kind == "job_start":
            started[(ev.task, ev.job_seq)] = ev.timestamp_ns
    res = Outcome(seconds, attempted=max(1, len(released)), jobs=report.completed,
                  trace=trace if tracer is not None else [], warnings=list(report.warnings))
    res.latencies_ns = [started[k] - t for k, t in released.items() if k in started]
    res.failed = res.attempted - len(res.latencies_ns)
    if not released:
        res.errors.append("probe: nothing was released")
    return res


# ---------------------------------------------------------------- running


class Run:
    """The operations of one pass after another, with their checks."""

    def __init__(self, rt, wl: gen.Workload, params: dict, speed: HostSpeed | None,
                 tracer: Tracer | None = None, expect: dict | None = None):
        self.rt, self.wl, self.params, self.speed, self.tracer = rt, wl, params, speed, tracer
        # the thread backend's runs last as long as the clock says
        self.clock_bound = wl.ops[0].kind == "realtime"
        self.cycles: list[list[Outcome]] = []
        # digests of each operation's first run; later runs must repeat them
        self.digests: dict[str, dict[str, str]] = dict(expect or {})
        self.problems: list[str] = []
        self.errors: list[str] = []
        self.warnings: list[str] = []
        self.ops_run = 0
        self.stretches: list[float] = []  # operation seconds between reference timings

    def run_op(self, op: gen.Op) -> Outcome:
        rt, op_id = self.rt, self.ops_run
        self.ops_run += 1
        if op.kind == "realtime":
            return run_probe(rt, self.params, self.tracer, op_id)
        rc, seconds = call_cli(rt, op.argv, self.tracer, op_id)
        if op.kind == "sweep":
            return check_sweep(self.wl.specs["axes.json"], op, rc, seconds)
        return check_simulate(rt, op, rc, seconds)

    def cycle(self) -> None:
        outs = []
        timed = self.speed is not None and not self.clock_bound
        if self.speed is not None and self.clock_bound:
            self.speed.sample_wake()
        elif timed and not self.speed.samples:
            self.speed.sample()
        stretch = 0.0
        for i, op in enumerate(self.wl.ops):
            res = self.run_op(op)
            stretch += res.seconds
            if timed and (stretch >= REF_EVERY_S or i == len(self.wl.ops) - 1):
                self.speed.sample()
                self.stretches.append(stretch)
                stretch = 0.0
            if res.digests != self.digests.setdefault(op.name, res.digests):
                res.problems.append(f"{op.name}: outputs differ from an earlier run of the same input")
                res.failed = res.attempted
            self.problems.extend(res.problems)
            self.errors.extend(res.errors)
            self.warnings.extend(w for w in res.warnings if w not in self.warnings)
            outs.append(res)
        self.cycles.append(outs)

    def run_for(self, seconds: float) -> None:
        """Repeat passes until `seconds` have gone, at least MIN_CYCLES."""
        t0 = perf_counter()
        while len(self.cycles) < MIN_CYCLES or perf_counter() - t0 < seconds:
            self.cycle()

    def outcomes(self) -> list[Outcome]:
        return [o for c in self.cycles for o in c]

    def wall(self) -> float:
        return sum(o.seconds for o in self.outcomes())

    def scaled(self) -> float:
        """Seconds in operations, scaled to the reference host."""
        return self.wall() if self.clock_bound else sum(self.speed.scaled_each(self.stretches))


# ------------------------------------------------------------ end to end


def end_to_end(run: Run, setup_s: list[float], setup_speed: HostSpeed, peak_mib: float
               ) -> tuple[dict[str, float], int]:
    """Rates are totals over the run's passes, each pass running every
    operation once.  The latency is the median release-to-start time on
    the thread backend, scaled by the wake-up reference, and the mean
    operation time on the CLI workloads.
    Set-up time is the median of its repeats, the first of which may
    compile the package."""
    outs = run.outcomes()
    seconds = run.scaled()
    if run.clock_bound:
        samples = [x / 1000 for o in outs for x in o.latencies_ns]
        latency = statistics.median(samples) * run.speed.wake_scale() if samples else 0.0
    else:
        samples = [o.seconds for o in outs]
        latency = seconds / len(outs) * 1e6
    return {
        "setup_s": statistics.median(setup_speed.scaled_each(setup_s)),
        "jobs_per_s": sum(o.jobs for o in outs) / seconds,
        "points_per_s": sum(o.points for o in outs) / seconds,
        "peak_rss_mib": peak_mib,
        "latency_p50_us": latency,
    }, len(samples)


def child_one_pass(src: str, name: str, seed: str) -> float:
    """Import the package, load and build the documents in the current
    directory and make one pass over the operations; returns this
    process's peak resident memory in MiB."""
    sys.path.insert(0, src)
    with open(os.path.join(HERE, "workloads.json")) as fp:
        params = json.load(fp)["workloads"][name]["generator"]
    rt = fresh_import()
    wl = gen.GENERATORS[name](params, int(seed))
    for fname in wl.documents:
        rt.load_document(fname).build_state()
    Run(rt, wl, params, None).cycle()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def peak_rss_mib(src: str, name: str, seed: int) -> float:
    """Peak memory of a fresh process running the workload once: in this
    process the reference job would set the peak of the smaller workloads."""
    return float(in_child("child_one_pass", src, name, str(seed), cwd=os.getcwd()))


# ------------------------------------------------------------- per layer


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, int(-(-len(ordered) * q // 100)) - 1)]


def trace_bytes_per_event(rt, wl: gen.Workload, seed: int) -> float:
    """Memory the in-memory trace of the workload's first simulation keeps
    per event, measured with tracemalloc around run_simulation."""
    op = wl.ops[0]
    if op.kind == "realtime":
        return 0.0
    if op.kind == "sweep":
        horizon = wl.specs["axes.json"]["horizon"]
    else:
        horizon = op.argv[op.argv.index("--horizon") + 1]
    doc = rt.load_document(op.argv[1])
    state, model = doc.build_state(), doc.sim_model()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace, _ = rt.run_simulation(state, model, horizon=horizon, seed=seed)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / len(trace) if trace else 0.0


def realtime_layer(outs: list[Outcome]) -> dict[str, float]:
    """Thread-backend numbers from the backend's own traces."""
    waits, ticks, lat = [], [], []
    idle = events = releases = 0
    for o in outs:
        lat.extend(x / 1000 for x in o.latencies_ns)
        tick_open = None
        for ev in o.trace:
            events += 1
            if ev.kind == "release_theoretical":
                releases += 1
            elif ev.kind == "lock_wait" and ev.payload.get("purpose") == "get_task":
                waits.append(ev.payload.get("wait", 0) / 1000)
                idle += ev.payload.get("got") == "idle"
            elif ev.kind == "tick_begin":
                tick_open = ev.timestamp_ns
            elif ev.kind == "tick_end" and tick_open is not None:
                ticks.append((ev.timestamp_ns - tick_open) / 1000)
                tick_open = None
    return {
        "realtime.get_task_wait_us_p50": statistics.median(waits) if waits else 0.0,
        "realtime.tick_us_p50": statistics.median(ticks) if ticks else 0.0,
        "realtime.idle_poll_ratio": idle / events if events else 0.0,
        "realtime.events_per_release": events / releases if releases else 0.0,
        "realtime.latency_p99_us": percentile(lat, 99),
    }


def sweep_points(tr: Tracer) -> list[float]:
    """Seconds per sweep point.  Points run one after another inside
    run_sweep, so each ends where its simulation ends and starts where the
    previous one ended."""
    out = []
    for idx, span in enumerate(tr.spans):
        if span is None or span[0] != "sweep.run":
            continue
        last = span[1]
        for child in tr.spans:
            if child is not None and child[0] == "simulator.run" and child[3] == idx:
                out.append((child[2] - last) / 1e9)
                last = child[2]
    return out


def src_lines() -> int:
    total = 0
    for root, _, files in os.walk(os.path.join("src", "rtsched")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(root, f), "rb") as fp:
                    total += fp.read().count(b"\n")
    return total


def per_layer(tr: Tracer, traced: Run, untraced: Run, seed: int, root: str) -> dict[str, float]:
    """Self seconds and call counts are per top-level operation (one CLI
    invocation or one thread-backend run)."""
    outs = traced.outcomes()
    n = len(outs)
    a = tr.agg

    def s(name: str) -> float:
        return a(name).self_ns / 1e9 / n

    def per(name: str) -> float:
        return a(name).calls / n

    def ratio(x: float, y: float) -> float:
        return x / y if y else 0.0

    sim = a("simulator.run")  # hits: completed jobs, sum: trace events
    points = sweep_points(tr)
    csv_events = sum(o.events for o in outs)
    with contextlib.chdir(root):
        lines = src_lines()
    return {
        "document.load_s": s("document.load"),
        "document.build_s": s("document.build"),
        "document.builds": per("document.build"),
        "model.validate_s": s("model.validate"),
        "model.validate_calls": per("model.validate"),
        "graph.analyze_s": s("graph.analyze"),
        "graph.analyze_per_run": ratio(a("graph.analyze").calls,
                                       sim.calls + a("realtime.run").calls),
        "graph.expand_s": s("graph.expand"),
        "graph.channel_scan_s": s("graph.channel_scan"),
        "graph.channel_scan_calls": per("graph.channel_scan"),
        "graph.check_activation_calls": per("graph.check_activation"),
        "graph.activation_hit_ratio": ratio(a("graph.reserve_activation").calls,
                                            a("graph.check_activation").calls),
        "online.due_releases_s": s("online.due_releases"),
        "online.graph_activations_s": s("online.graph_activations"),
        "online.make_job_s": s("online.make_job"),
        "online.pick_next_s": s("online.pick_next"),
        "online.pick_next_calls": per("online.pick_next"),
        "online.pick_idle_ratio": ratio(a("online.pick_next").hits, a("online.pick_next").calls),
        "online.sort_s": s("online.sort"),
        "online.sort_calls": per("online.sort"),
        "online.queue_len_mean": ratio(a("online.sort").sum, a("online.sort").calls),
        "online.unblock_s": s("online.unblock"),
        "priority.assign_s": s("priority.assign"),
        "versions.select_s": s("versions.select"),
        "versions.select_calls": per("versions.select"),
        "versions.accel_acquire_calls": per("versions.acquire"),
        "versions.accel_busy_ratio": ratio(a("versions.acquire").hits, a("versions.acquire").calls),
        "versions.inherit_calls": per("versions.inherit"),
        "simulator.run_s": sim.total_ns / 1e9 / n,
        "simulator.self_s": s("simulator.run"),
        "simulator.self_us_per_job": ratio(sim.self_ns / 1e3, sim.hits),
        "simulator.events_per_job": ratio(sim.sum, sim.hits),
        "tracing.overheads_s": s("tracing.overheads"),
        "tracing.csv_s": s("tracing.csv"),
        "tracing.csv_bytes_per_event": ratio(sum(o.csv_bytes for o in outs), csv_events),
        "tracing.trace_bytes_per_event": trace_bytes_per_event(traced.rt, traced.wl, seed),
        "tracing.report_s": s("tracing.report"),
        "sweep.point_s_p50": statistics.median(points) if points else 0.0,
        "sweep.csv_s": s("sweep.csv"),
        "cli.self_s": s("cli.main"),
        **realtime_layer(outs),
        "trace.overhead_ratio": ratio(traced.scaled(), untraced.scaled()),
        "code.src_lines": lines,
        "code.api_size": len(traced.rt.__all__),
    }


# ------------------------------------------------------------------- main


def set_up(name: str, params: dict, seed: int, speed: HostSpeed):
    """Import the package, generate the documents, write, load and build
    them.  Returns (seconds, package, workload)."""
    gc.collect()  # garbage of the previous set-up is not this one's cost
    speed.sample()
    t0 = perf_counter()
    rt = fresh_import()
    wl = gen.GENERATORS[name](params, seed)
    for fname, doc in {**wl.documents, **wl.specs}.items():
        with open(fname, "w") as fp:
            json.dump(doc, fp)
    for fname in wl.documents:
        rt.load_document(fname).build_state()
    if name == "rt-latency":
        probe_state(rt, params)
    return perf_counter() - t0, rt, wl


def tally(runs: list[Run]) -> tuple[int, int]:
    """Attempted and failed operations of a run.  A simulated operation is
    deterministic and every repeat must reproduce its first outputs, so it
    counts once, and as failed when any of its repeats failed: the counts
    then depend on the seed, not on how many passes the host's speed
    allowed.  Each thread-backend run is new work and counts in full."""
    attempted = failed = 0
    per_op: dict[str, tuple[int, int]] = {}
    for run in runs:
        for cycle in run.cycles:
            for op, o in zip(run.wl.ops, cycle):
                if run.clock_bound:
                    attempted, failed = attempted + o.attempted, failed + o.failed
                else:
                    a, f = per_op.get(op.name, (0, 0))
                    per_op[op.name] = max(a, o.attempted), max(f, o.failed)
    return (attempted + sum(a for a, _ in per_op.values()),
            failed + sum(f for _, f in per_op.values()))


def print_result(metrics: dict, units: dict[str, str], attempted: int, failed: int,
                 problems: list[str], errors: list[str]) -> None:
    for problem in problems:
        print(f"check failed: {problem}")
    for error in sorted(set(errors)):
        print(f"operation failed {errors.count(error)} times: {error}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def measure(args, params: dict, bench: dict, root: str) -> int:
    setup_speed = HostSpeed()
    setup_s = []
    for _ in range(SETUP_REPS if args.trace == 0 else 1):
        seconds, rt, wl = set_up(args.workload, params, args.seed, setup_speed)
        setup_s.append(seconds)
    setup_speed.sample()

    run = Run(rt, wl, params, HostSpeed())
    if args.trace == 0:
        run.run_for(args.seconds)
        runs = [run]
        peak = peak_rss_mib(os.path.join(root, "src"), args.workload, args.seed)
        metrics, samples = end_to_end(run, setup_s, setup_speed, peak)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    else:
        run.run_for(args.seconds / 2)
        tracer = Tracer()
        traced = Run(rt, wl, params, HostSpeed(), tracer, expect=run.digests)
        tracer.install()
        try:
            for _ in run.cycles:
                traced.cycle()
        finally:
            tracer.uninstall()
        runs = [run, traced]
        metrics = per_layer(tracer, traced, run, args.seed, root)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        with open("spans.jsonl", "w") as fp:
            for span in tracer.spans:
                fp.write(json.dumps(dict(zip(("name", "start_ns", "end_ns", "parent", "op"),
                                             span))) + "\n")
        print(f"spans: {len(tracer.spans)} written to "
              f"{os.path.relpath(os.path.join(os.getcwd(), 'spans.jsonl'), root)};"
              f" traced wall {traced.wall():.3f} s over untraced {run.wall():.3f} s")

    print(f"workload {args.workload} seed {args.seed}: {len(run.cycles)} passes over"
          f" {len(wl.ops)} operations, {run.wall():.3f} host s in operations,"
          f" {run.scaled():.3f} s scaled to the reference job")
    for name, digests in run.digests.items():
        if digests:
            print(f"digest {name} " + " ".join(f"{k}={v}" for k, v in sorted(digests.items())))
    for w in run.warnings:
        print(f"backend warning: {w}")
    if args.trace == 0 and run.clock_bound:
        lat = [x / 1000 for o in run.outcomes() for x in o.latencies_ns]
        wake = statistics.median(run.speed.wake_ns) / 1000
        print(f"rt_latency_p50_us {metrics['latency_p50_us']:.6g} us scaled,"
              f" {statistics.median(lat):.6g} us as measured; p99 {percentile(lat, 99):.6g} us"
              f" as measured; over n={len(lat)} releases; wake-up reference p50 {wake:.6g} us"
              f" over n={len(run.speed.wake_ns)}")
    elif args.trace == 0:
        print(f"rt_latency_p50_us n/a (thread backend only); latency_p50_us is the"
              f" mean time of n={samples} operations")
    attempted, failed = tally(runs)
    print_result(metrics, units, attempted, failed, [p for r in runs for p in r.problems],
                 [e for r in runs for e in r.errors])
    return 0


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(HERE, "workloads.json")) as fp:
        records = json.load(fp)["workloads"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(records))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rtsched", "__init__.py")):
        print(f"error: no package source at {src}/rtsched; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fp:
            bench = json.load(fp)
    except FileNotFoundError:
        print("error: BENCHMARK.json not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    params = records[args.workload]["generator"]

    if args.workload == "rt-latency":
        from rtsched.realtime import available_cpus

        need = params["workers"] + 1  # workers plus the scheduler thread
        have = min(available_cpus(), os.cpu_count() or 1)
        if have < need:
            print(f"rt-latency: skipped, needs {need} processors, found {have}")
            return 3

    work = os.path.join(root, WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with contextlib.chdir(work):
        return measure(args, params, bench, root)


if __name__ == "__main__":
    sys.exit(main())
