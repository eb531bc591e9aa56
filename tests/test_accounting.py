"""Overheads accounted while a run records its events match the ones
compute_overheads derives from the finished trace, and a run that keeps no
trace reports exactly what a run that keeps it reports."""

import glob
import io
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtsched import (
    CSV_COLUMNS,
    ClockSource,
    DeclarationError,
    EVENT_KINDS,
    MappingScheme,
    PolicyConfig,
    PriorityAssignment,
    ScheduleTable,
    SimJobModel,
    TaskKind,
    compute_overheads,
    init,
    load_document,
    ms,
    read_trace_csv,
    run_realtime,
    run_simulation,
    trace_csv_text,
    us,
)
from rtsched.cli import main
from rtsched.tracing import _Accounts

from .test_golden import GOLDEN

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
DOCUMENTS = sorted(p for p in glob.glob(os.path.join(DEMOS, "*.json"))
                   if not p.endswith("_axes.json"))  # *_axes.json are sweep specs


def _check(state, model, horizon, seed):
    """Run with and without the trace; return the kept trace's report."""
    trace, report = run_simulation(state, model, horizon=horizon, seed=seed)
    assert report.overheads == compute_overheads(trace, allow_truncated=report.truncated)
    bare, bare_report = run_simulation(state, model, horizon=horizon, seed=seed,
                                       keep_trace=False)
    assert bare == []
    assert bare_report.to_dict() == report.to_dict()
    return report


@pytest.mark.parametrize("path", DOCUMENTS, ids=os.path.basename)
def test_demo_documents(path):
    doc = load_document(path)
    report = _check(doc.build_state(), doc.sim_model(), "2hp", 1)
    assert report.completed > 0


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_inputs(case):
    _check(*GOLDEN[case][0]())


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_inputs_as_csv_rows(case):
    """The rows a run formats as it records equal the export of its
    TraceEvents, late stamps (offline-table, scripted-modes) included."""
    state, model, horizon, seed = GOLDEN[case][0]()
    trace, report = run_simulation(state, model, horizon=horizon, seed=seed)
    rows, rows_report = run_simulation(state, model, horizon=horizon, seed=seed,
                                       keep_trace="csv")
    assert ",".join(CSV_COLUMNS) + "\n" + "".join(rows) == trace_csv_text(trace)
    assert len(rows) == len(trace)
    assert rows_report.to_dict() == report.to_dict()


# names rich in what CSV must quote; ';', '=' and line breaks are rejected by the model
_CSV_NAMES = st.text(st.sampled_from([",", '"', " ", "é", "a", "b"]),
                     min_size=1, max_size=4)


@settings(max_examples=40, deadline=None)
@given(workers=st.integers(1, 2),
       names=st.lists(_CSV_NAMES, min_size=3, max_size=9, unique=True),
       periods=st.lists(st.sampled_from([5, 10, 20, 40]), min_size=4, max_size=4),
       wcets=st.lists(st.integers(1, 4), min_size=4, max_size=4))
def test_csv_rows_quote_names_as_the_export(workers, names, periods, wcets):
    """Rows formatted with per-run encoded names equal the export of the
    run's TraceEvents, whatever the task, version and accelerator names hold
    (as `version=`, `accel=` and preemption `by=` payloads too); task 0's
    version needs the accelerator, and later, shorter-period tasks can preempt."""
    state = init(PolicyConfig(worker_count=workers, priority_assignment=PriorityAssignment.RM))
    accel = state.hwaccel_decl(names[0])
    tasks = names[1:][::2][:4]
    for i, (task, version) in enumerate(zip(tasks, names[2:][::2])):
        tid = state.task_decl(task, TaskKind.PERIODIC, period=ms(periods[i]),
                              release_offset=ms(i))
        vid = state.version_decl(tid, wcet_estimate=ms(wcets[i]), name=version)
        if i == 0:
            state.hwaccel_use(tid, vid, accel)
    model = SimJobModel(context_switch_cost=us(5))
    trace, report = run_simulation(state, model, horizon=ms(40))
    rows, rows_report = run_simulation(state, model, horizon=ms(40), keep_trace="csv")
    assert ",".join(CSV_COLUMNS) + "\n" + "".join(rows) == trace_csv_text(trace)
    assert rows_report.to_dict() == report.to_dict()


def test_payload_separators_in_names_rejected():
    """`hi;switch=5` preempting `lo` wrote `by=hi;switch=5` payloads, which
    read back as 10 ns of context switching the report never had."""
    def run(name):
        state = init(PolicyConfig(worker_count=1, priority_assignment=PriorityAssignment.RM))
        lo = state.task_decl("lo", TaskKind.PERIODIC, period=ms(20))
        state.version_decl(lo, wcet_estimate=ms(8))
        hi = state.task_decl(name, TaskKind.PERIODIC, period=ms(5), release_offset=ms(1))
        state.version_decl(hi, wcet_estimate=ms(1))
        return run_simulation(state, horizon=ms(20))

    trace, report = run("hi")
    assert report.overheads.preemptions > 0
    assert compute_overheads(read_trace_csv(io.StringIO(trace_csv_text(trace)))) == report.overheads
    with pytest.raises(DeclarationError, match=re.escape("'hi;switch=5'")):
        run("hi;switch=5")


def _every_kind_online():
    """One worker under G-EDF with switch costs: hi preempts lo, which
    holds the accelerator; over runs past its wcet and its deadline."""
    state = init(PolicyConfig(worker_count=1))
    gpu = state.hwaccel_decl("gpu")
    lo = state.task_decl("lo", TaskKind.PERIODIC, period=ms(20))
    state.hwaccel_use(lo, state.version_decl(lo, wcet_estimate=ms(8)), gpu)
    hi = state.task_decl("hi", TaskKind.PERIODIC, period=ms(5), release_offset=ms(1))
    state.version_decl(hi, wcet_estimate=ms(1))
    over = state.task_decl("over", TaskKind.PERIODIC, period=ms(10),
                           relative_deadline=ms(1))
    state.version_decl(over, wcet_estimate=ms(1))
    model = SimJobModel(exec_time={"over": ms(2)}, get_task_cost=us(2),
                        sched_scan_cost_per_task=us(1), sort_cost_per_element=us(1),
                        context_switch_cost=us(5))
    return state, model, ms(40), 3


def _every_kind_table():
    """An O-TABLE core whose second entry starts after its release."""
    state = init(PolicyConfig(worker_count=1, mapping_scheme=MappingScheme.OFFLINE,
                              preemptive=False))
    table = ScheduleTable(ms(10))
    for name, offset in (("a", 0), ("b", ms(1))):
        tid = state.task_decl(name, TaskKind.PERIODIC, period=ms(10), virt_core_id=0)
        table.add(0, tid, state.version_decl(tid, wcet_estimate=ms(3)), offset)
    state.table = table
    return state, SimJobModel(), ms(30), 0


def test_every_event_kind_in_every_trace_form():
    """Each event kind the simulator records, with each payload shape, is the
    same report, the same CSV and the same overheads whatever the run keeps.
    Two runs: a late table entry's overrun exists only under O-TABLE, which
    takes no queue lock and has no tick."""
    payloads = set()
    for state, model, horizon, seed in (_every_kind_online(), _every_kind_table()):
        runs = {keep: run_simulation(state, model, horizon=horizon, seed=seed, keep_trace=keep)
                for keep in (False, True, "csv")}
        (_, bare), (trace, report), (rows, rows_report) = runs.values()
        assert bare.to_dict() == report.to_dict() == rows_report.to_dict()
        text = ",".join(CSV_COLUMNS) + "\n" + "".join(rows)
        assert text == trace_csv_text(trace)
        reread = compute_overheads(read_trace_csv(io.StringIO(text)))
        assert reread.to_dict() == report.to_dict()["run"]
        payloads |= {(e.kind, tuple(e.payload)) for e in trace}
        for e in trace:
            if e.kind in ("preempt", "resume"):
                assert e.payload["switch"] == us(5)
    assert {kind for kind, _ in payloads} == set(EVENT_KINDS)
    assert {("lock_wait", ("wait", "held", "purpose", "got")),
            ("lock_wait", ("wait", "purpose", "queue")),
            ("preempt", ("switch", "by")), ("resume", ("switch",)),
            ("overrun", ("over",)), ("overrun", ("late",)),
            ("deadline_miss", ("late",))} <= payloads


def test_accounts_hold_only_live_jobs(monkeypatch):
    """A report-only run's per-job accounts are bounded by its live jobs,
    not by its length: a feasible G-EDF set peaks equally over 2 and 20
    hyperperiods."""
    state = init(PolicyConfig(worker_count=2))
    for i, (period, wcet) in enumerate(((10, 4), (20, 6), (40, 10), (50, 5))):
        tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=ms(period))
        state.version_decl(tid, wcet_estimate=ms(wcet))
    peak = [0]
    mark = _Accounts.mark

    def counted(self, *args):
        mark(self, *args)
        peak[0] = max(peak[0], len(self.marks))

    monkeypatch.setattr(_Accounts, "mark", counted)
    peaks = {}
    for horizon in (ms(400), ms(4000)):
        peak[0] = 0
        _, report = run_simulation(state, horizon=horizon, keep_trace=False)
        assert report.misses == 0 and report.completed > 0
        peaks[horizon] = peak[0]
    trace, _ = run_simulation(state, horizon=ms(400))
    live = peak_live = 0
    for e in trace:
        live += (e.kind == "release_theoretical") - (e.kind == "job_complete")
        peak_live = max(peak_live, live)
    assert 0 < peaks[ms(400)] == peaks[ms(4000)] <= peak_live


_PERIODS = (ms(2), ms(4), ms(5), ms(10))


@st.composite
def _runs(draw, mapping, preemptive, pip_enabled):
    offline = mapping is MappingScheme.OFFLINE
    workers = draw(st.integers(1, 2))
    state = init(PolicyConfig(mapping_scheme=mapping, worker_count=workers,
                              preemptive=preemptive))
    accels = [state.hwaccel_decl(f"acc{i}") for i in range(draw(st.integers(1, 2)))]
    table = ScheduleTable(ms(10))
    for i in range(draw(st.integers(2, 5))):
        period = ms(10) if offline else draw(st.sampled_from(_PERIODS))
        core = None if mapping is MappingScheme.GLOBAL else i % workers
        # offsets on a 50 us grid land releases inside lock sections and switches
        offset = 0 if offline else draw(st.integers(0, period // us(50) - 1)) * us(50)
        tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=period, release_offset=offset,
                              virt_core_id=core)
        vid = state.version_decl(tid, wcet_estimate=draw(st.integers(us(50), period // 2)))
        if draw(st.booleans()):
            state.hwaccel_use(tid, vid, draw(st.sampled_from(accels)))
        if offline:
            table.add(core, tid, vid, draw(st.integers(0, ms(9))))
    if offline:
        for entries in table.cores.values():
            entries.sort(key=lambda e: e.release_offset)
        state.table = table
    knob = st.integers(1, us(20))
    model = SimJobModel(
        exec_time={t.name: {"dist": "uniform", "low": 0, "high": t.versions[0].wcet_estimate}
                   for t in state.tasks},
        get_task_cost=draw(knob),
        sched_scan_cost_per_task=draw(knob),
        sort_cost_per_element=draw(knob),
        context_switch_cost=draw(knob),
        pip_enabled=pip_enabled,
    )
    return state, model, ms(40), draw(st.integers(0, 99))


@pytest.mark.parametrize("mapping, preemptive", [
    (MappingScheme.GLOBAL, True), (MappingScheme.GLOBAL, False),
    (MappingScheme.PARTITIONED, True), (MappingScheme.OFFLINE, False),
])
@pytest.mark.parametrize("pip_enabled", [True, False])
def test_random_runs(mapping, preemptive, pip_enabled):
    @settings(max_examples=10, deadline=None)
    @given(_runs(mapping, preemptive, pip_enabled))
    def check(run):
        _check(*run)

    check()


def test_realtime_run(many_cpus):
    state = init(PolicyConfig(worker_count=2, clock_source=ClockSource.MONOTONIC_OS))
    for i in range(2):
        tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=ms(5))
        state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000)
    trace, report = run_realtime(state, ms(40))
    assert trace and report.completed > 0
    assert report.overheads == compute_overheads(trace, allow_truncated=report.truncated)


def test_cli_report_does_not_depend_on_the_trace(tmp_path):
    doc = os.path.join(DEMOS, "vision_pipeline.json")
    with_trace, without = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", doc, "--report", str(with_trace),
                 "--trace", str(tmp_path / "a.csv")]) == 0
    assert main(["simulate", doc, "--report", str(without)]) == 0
    assert with_trace.read_bytes() == without.read_bytes()
    assert (tmp_path / "a.csv").stat().st_size > 0


def test_cli_trace_equals_the_api_export(tmp_path):
    doc = os.path.join(DEMOS, "drone.json")
    out = tmp_path / "t.csv"
    assert main(["simulate", doc, "--seed", "3", "--trace", str(out)]) == 0
    loaded = load_document(doc)
    trace, _ = run_simulation(loaded.build_state(), loaded.sim_model(), seed=3)
    assert out.read_bytes() == trace_csv_text(trace).encode()
