"""Trace serialization and overhead accounting."""

import csv
import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtsched import (
    SCHEDULER_WORKER,
    RunReport,
    Stat,
    TraceEvent,
    TraceIntegrityError,
    compute_overheads,
    read_trace_csv,
    run_simulation,
    trace_csv_text,
    write_trace_csv,
)
from rtsched.tracing import RunLog, _Accounts, csv_row

from .test_golden import GOLDEN


def _ev(t, kind, task="", seq=None, worker=None, **payload):
    return TraceEvent(t, kind, task, seq, worker, payload)


class TestCsv:
    def test_round_trip(self):
        events = [
            _ev(0, "release_theoretical", "t", 0),
            _ev(0, "release_effective", "t", 0),
            _ev(5, "lock_wait", worker=0, wait=3, purpose="get_task", held=2),
            _ev(5, "job_start", "t", 0, worker=0, version="v0"),
            _ev(90, "job_complete", "t", 0, worker=0),
        ]
        text = trace_csv_text(events)
        back = read_trace_csv(io.StringIO(text))
        assert back == events

    def test_names_that_look_like_numbers_stay_text(self):
        """A version "7", a version "1_0" and an accelerator "2" read back
        as text, not as the ints 7, 10 and 2."""
        events = [
            _ev(0, "job_start", "7", 0, worker=0, version="7"),
            _ev(0, "accel_acquire", "7", 0, worker=0, accel="2"),
            _ev(1, "preempt", "7", 0, worker=0, switch=5, by="1_0"),
            _ev(2, "job_start", "1_0", 0, worker=0, version="1_0"),
            _ev(3, "lock_wait", worker=0, wait=3, held=2, purpose="get_task", got="start"),
        ]
        assert read_trace_csv(io.StringIO(trace_csv_text(events))) == events

    def test_read_back_shares_strings(self):
        """Each distinct kind, task, payload key and name is one object."""
        text = trace_csv_text([_ev(t, "job_start", "task", t, worker=0, version="v")
                               for t in range(2)])
        a, b = read_trace_csv(io.StringIO(text))
        assert a.kind is b.kind and a.task is b.task
        [(ka, va)], [(kb, vb)] = a.payload.items(), b.payload.items()
        assert ka is kb and va is vb

    def test_header_and_line_shape(self):
        text = trace_csv_text([_ev(1, "tick_begin", worker=SCHEDULER_WORKER)])
        lines = text.splitlines()
        assert lines[0] == "timestamp_ns,kind,task,job_seq,worker,payload"
        assert lines[1] == "1,tick_begin,,,-1,"

    def test_payload_encoding_is_ordered(self):
        e = _ev(0, "preempt", "t", 1, worker=0, switch=100, by="hi")
        assert e.encode_payload() == "switch=100;by=hi"

    def test_payload_ints_decoded(self):
        text = trace_csv_text(
            [_ev(2, "deadline_miss", "t", 0, worker=1, late=500, note="x")]
        )
        [e] = read_trace_csv(io.StringIO(text))
        assert e.payload == {"late": 500, "note": "x"}
        assert isinstance(e.payload["late"], int)

    def test_bad_header_rejected(self):
        with pytest.raises(TraceIntegrityError, match="header"):
            read_trace_csv(io.StringIO("time,kind\n"))

    def test_unknown_kind_rejected(self):
        text = "timestamp_ns,kind,task,job_seq,worker,payload\n1,teleport,,,,\n"
        with pytest.raises(TraceIntegrityError, match="'teleport' at line 2"):
            read_trace_csv(io.StringIO(text))

    @pytest.mark.parametrize("row", [
        "5,job_start,t",  # too few fields
        "x,job_start,t,0,0,",  # timestamp not an integer
        "5,job_start,t,0.5,0,",  # seq not an integer
        "5,job_start,a\rb,0,0,",  # a line break in an unquoted field
    ])
    def test_malformed_row_names_its_line(self, row):
        text = "timestamp_ns,kind,task,job_seq,worker,payload\n1,job_start,t,0,0,\n" + row + "\n"
        with pytest.raises(TraceIntegrityError, match="line 3"):
            read_trace_csv(io.StringIO(text))

    def test_write_to_file(self, tmp_path):
        p = tmp_path / "trace.csv"
        events = [_ev(0, "job_start", "t", 0, worker=0)]
        with open(p, "w") as fp:
            write_trace_csv(events, fp)
        with open(p) as fp:
            assert read_trace_csv(fp) == events


class TestStat:
    def test_running_min_max_avg(self):
        s = Stat()
        assert s.avg == 0.0
        for v in (5, 1, 9):
            s.add(v)
        assert (s.count, s.total, s.min, s.max) == (3, 15, 1, 9)
        assert s.avg == 5.0
        assert s.to_dict() == {"count": 3, "total": 15, "min": 1, "max": 9, "avg": 5.0}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1))
    def test_matches_builtin_aggregates(self, values):
        s = Stat()
        for v in values:
            s.add(v)
        assert s.min == min(values)
        assert s.max == max(values)
        assert s.avg == pytest.approx(sum(values) / len(values))


class TestRunReport:
    def test_to_dict_shape(self):
        r = RunReport()
        r.task("b").released += 1
        r.task("a").response.add(7)
        r.meta = {"seed": 3, "backend": "virtual"}
        d = r.to_dict()
        assert list(d["tasks"]) == ["a", "b"]  # sorted
        assert list(d["meta"]) == ["backend", "seed"]
        assert d["totals"] == {
            "released": 1, "completed": 0, "misses": 0, "truncated": False,
        }
        assert d["tasks"]["a"]["response_ns"]["max"] == 7
        assert "get_task_ns" in d["run"]

    def test_task_accessor_creates_once(self):
        r = RunReport()
        assert r.task("x") is r.task("x")

    @staticmethod
    def _dumped(report):
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)

    def test_to_json_of_an_empty_report(self):
        assert RunReport().to_json() == self._dumped(RunReport())

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_to_json_is_to_dict_dumped(self, data):
        name = st.one_of(st.sampled_from(["", '"', "\\", "\x00", "\x1f", "\x7f", "é", "名",
                                          "\u2028", "\U0001f600", 'a"b\\c\nd']),
                         st.text(max_size=6))
        value = st.integers(min_value=-10**15, max_value=10**15)

        def stat():
            s = Stat()  # count 0 when the draw is empty
            for v in data.draw(st.lists(value, max_size=3)):
                s.add(v)
            return s

        r = RunReport(truncated=data.draw(st.booleans()))
        for n in data.draw(st.lists(name, max_size=4, unique=True)):
            t = r.task(n)
            t.released, t.completed, t.misses = data.draw(st.tuples(value, value, value))
            t.response = stat()
        for f in ("get_task", "scheduling", "release_overhead", "worker_lock_wait",
                  "scheduler_lock_wait"):
            setattr(r.overheads, f, stat())
        r.overheads.preemptions, r.overheads.context_switch_total = data.draw(
            st.tuples(value, value))
        r.warnings = data.draw(st.lists(name, max_size=3))
        leaf = st.one_of(st.none(), st.booleans(), value, st.floats(), name)
        r.meta = data.draw(st.dictionaries(
            name, st.one_of(leaf, st.lists(leaf, max_size=2),
                            st.dictionaries(name, leaf, max_size=2)), max_size=4))
        assert r.to_json() == self._dumped(r)

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_to_json_of_golden_runs(self, case):
        state, model, horizon, seed = GOLDEN[case][0]()
        _, report = run_simulation(state, model, horizon=horizon, seed=seed)
        assert report.to_json() == self._dumped(report)


def _job(release, deadline, wcet, task="t", seq=0):
    version = SimpleNamespace(name="v0", wcet_estimate=wcet)
    return SimpleNamespace(task=SimpleNamespace(name=task), seq=seq, version=version,
                           abs_release=release, abs_deadline=deadline)


class TestRunLog:
    def test_complete_records_overrun_and_miss(self):
        log = RunLog()
        job = _job(0, 10, wcet=4)
        log.theoretical(job)
        log.release(0, job)
        log.start(9, job, 1)
        log.complete(15, job, worker=1, body_ns=6)
        trace, report = log.close({})
        assert trace[3:] == [
            _ev(15, "job_complete", "t", 0, worker=1),
            _ev(15, "overrun", "t", 0, worker=1, over=2),
            _ev(15, "deadline_miss", "t", 0, worker=1, late=5),
        ]
        st = report.tasks["t"]
        assert (st.completed, st.misses, st.response.total) == (1, 1, 15)

    def test_table_release_late_entry(self):
        """A late entry's release carries an overrun; one on time, none."""
        log = RunLog()
        log.table_release(7, _job(5, 20, wcet=1), worker=2)
        log.table_release(9, _job(9, 20, wcet=1, seq=1), worker=2)
        trace, report = log.close({})
        assert trace == [
            _ev(5, "release_theoretical", "t", 0),
            _ev(7, "release_effective", "t", 0, worker=2),
            _ev(7, "overrun", "t", 0, worker=2, late=2),
            _ev(9, "release_theoretical", "t", 1),
            _ev(9, "release_effective", "t", 1, worker=2),
        ]
        assert report.released == 2

    def test_unfinished_jobs_listed_in_task_order(self):
        """close names the jobs it holds open by task id, then seq, not by
        name or by the order their marks came in."""
        log = RunLog(keep_trace=False, task_names=("b", "a"))
        for task, seq in (("a", 1), ("b", 2), ("a", 0), ("b", 0)):
            log.theoretical(_job(0, 9, wcet=1, task=task, seq=seq))
        _, report = log.close({})
        assert report.warnings == ["run ended with unfinished jobs: b#0, b#2, a#0, a#1"]
        assert report.truncated
        assert (report.tasks["a"].misses, report.tasks["b"].misses) == (2, 2)


class TestRunLogRows:
    def test_late_rows_sorted_by_stamp_as_a_number(self):
        """A row stamped 9 recorded after one stamped 10 goes before it, and
        rows of one instant keep the order they were recorded in."""
        log = RunLog("csv")
        log.theoretical(_job(10, 50, wcet=1, task="a"))
        log.theoretical(_job(9, 50, wcet=1, task="b"))
        log.tick_wait(9, 2, 0)
        trace, _ = log.close({})
        assert trace == ["9,release_theoretical,b,0,,\n",
                         "9,lock_wait,,,-1,wait=2;purpose=tick;queue=0\n",
                         "10,release_theoretical,a,0,,\n"]

    def test_rows_in_time_order_kept_as_recorded(self):
        log = RunLog("csv")
        job = _job(0, 9, wcet=1)
        log.theoretical(job)
        log.release(1, job)
        log.start(2, job, 0)
        log.preempt(3, job, 0, by="h,i", switch=4)
        trace, _ = log.close({})
        assert trace == ["0,release_theoretical,t,0,,\n", "1,release_effective,t,0,,\n",
                         "2,job_start,t,0,0,version=v0\n",
                         '3,preempt,t,0,0,"switch=4;by=h,i"\n']
        assert not log._late


class TestComputeOverheads:
    def _good_trace(self):
        return [
            _ev(0, "release_theoretical", "t", 0),
            _ev(2, "lock_wait", worker=SCHEDULER_WORKER, wait=1, purpose="tick", queue=0),
            _ev(2, "tick_begin", worker=SCHEDULER_WORKER),
            _ev(6, "tick_end", worker=SCHEDULER_WORKER),
            _ev(4, "release_effective", "t", 0),
            _ev(7, "lock_wait", worker=0, wait=2, held=3, purpose="get_task", got="start"),
            _ev(10, "job_start", "t", 0, worker=0),
            _ev(12, "preempt", "t", 0, worker=0, switch=5, by="u"),
            _ev(20, "resume", "t", 0, worker=0, switch=5),
            _ev(30, "job_complete", "t", 0, worker=0),
        ]

    def test_aggregates(self):
        o = compute_overheads(self._good_trace())
        assert o.release_overhead.max == 4
        assert o.scheduling.max == 4
        assert o.scheduler_lock_wait.max == 1
        assert o.worker_lock_wait.max == 2
        assert o.get_task.max == 3
        assert o.preemptions == 1
        assert o.context_switch_total == 10

    def test_worker_time_must_not_go_backwards(self):
        trace = [
            _ev(10, "job_start", "t", 0, worker=0),
            _ev(5, "job_complete", "t", 0, worker=0),
        ]
        with pytest.raises(TraceIntegrityError, match="backwards"):
            compute_overheads(trace)

    def test_duplicate_marker_rejected(self):
        trace = [
            _ev(0, "job_start", "t", 0, worker=0),
            _ev(1, "job_start", "t", 0, worker=1),
        ]
        with pytest.raises(TraceIntegrityError, match="duplicate"):
            compute_overheads(trace)

    def test_unpaired_tick_rejected(self):
        with pytest.raises(TraceIntegrityError, match="tick"):
            compute_overheads([_ev(0, "tick_begin", worker=SCHEDULER_WORKER)])
        with pytest.raises(TraceIntegrityError, match="tick"):
            compute_overheads([_ev(0, "tick_end", worker=SCHEDULER_WORKER)])

    def test_job_marker_inversion_rejected(self):
        trace = [
            _ev(9, "release_theoretical", "t", 0),
            _ev(3, "release_effective", "t", 0),
        ]
        with pytest.raises(TraceIntegrityError, match="ordering violation"):
            compute_overheads(trace)

    def test_started_but_unfinished_rejected_unless_truncated(self):
        trace = [_ev(0, "job_start", "t", 0, worker=0)]
        with pytest.raises(TraceIntegrityError, match="never completed"):
            compute_overheads(trace)
        compute_overheads(trace, allow_truncated=True)  # tolerated


def _tick(log, t, kind):
    getattr(log, kind)(t)  # the tick_begin or tick_end step


_J = _job(0, 9, wcet=1)


# each fault as a run records it, and the message compute_overheads gives
# for the sorted trace of the same events
INTEGRITY_FAULTS = {
    "duplicate job_start": (
        lambda log: (log.start(5, _J, 0), log.start(6, _J, 1)),
        "duplicate job_start for t#0",
    ),
    "nested tick_begin": (
        lambda log: (_tick(log, 0, "tick_begin"), _tick(log, 1, "tick_begin"),
                     _tick(log, 2, "tick_end")),
        "tick_begin while a tick is open",
    ),
    "tick_end without tick_begin": (
        lambda log: _tick(log, 3, "tick_end"),
        "tick_end without tick_begin",
    ),
    "unclosed tick": (
        lambda log: _tick(log, 0, "tick_begin"),
        "trace ends inside a tick",
    ),
    "start after complete": (
        lambda log: (log.theoretical(_J), log.release(0, _J),
                     log.complete(5, _J, 0, 1), log.start(9, _J, 0)),
        "ordering violation for job t#0: {'release_theoretical': 0,"
        " 'release_effective': 0, 'job_complete': 5, 'job_start': 9}",
    ),
    "complete after a full chain": (
        lambda log: (log.theoretical(_J), log.release(0, _J), log.start(1, _J, 0),
                     log.complete(5, _J, 0, 1), log.complete(6, _J, 0, 1)),
        "duplicate job_complete for t#0",
    ),
    "started, never completed": (
        lambda log: (log.theoretical(_J), log.release(0, _J),
                     log.start(1, _J, 0)),
        "job t#0 started but never completed",
    ),
}


class _Blind(_Accounts):
    """Accounts that let every fault pass, so a faulty run still closes."""

    def fail(self, message):
        pass

    def finish(self, allow_truncated):
        return self.overheads


class TestRunLogIntegrity:
    """The trace-integrity checks hold for a run that keeps no trace."""

    @pytest.mark.parametrize("fault", sorted(INTEGRITY_FAULTS))
    def test_fault_raised_at_close(self, fault):
        record, message = INTEGRITY_FAULTS[fault]
        for keep_trace in (False, True, "csv"):
            log = RunLog(keep_trace=keep_trace)
            record(log)
            if fault == "started, never completed":
                # a log reports a job it holds open as unfinished
                _, report = log.close({})
                assert report.truncated and report.tasks["t"].misses == 1
                assert report.warnings == ["run ended with unfinished jobs: t#0"]
            else:
                with pytest.raises(TraceIntegrityError) as err:
                    log.close({})
                assert str(err.value) == message
            if not keep_trace:
                assert log.trace == []
        # the trace the same steps leave, sorted and read back, shows the same fault
        log = RunLog()
        log._accounts = _Blind()
        record(log)
        trace, _ = log.close({})
        with pytest.raises(TraceIntegrityError) as err:
            compute_overheads(trace)
        assert str(err.value) == message

    def test_unfinished_job_tolerated_in_a_truncated_run(self):
        log = RunLog(keep_trace=False)
        log.start(1, _J, 0)
        _, report = log.close({})
        assert report.truncated

    def test_first_fault_wins(self):
        log = RunLog(keep_trace=False)
        _tick(log, 0, "tick_end")
        log.start(5, _J, 0)
        log.start(6, _J, 1)
        with pytest.raises(TraceIntegrityError, match="tick_end without tick_begin"):
            log.close({})


def _chain(t, task, seq):
    """A job's four marks from `t` on, as a trace records them."""
    return [_ev(t, "release_theoretical", task, seq), _ev(t + 1, "release_effective", task, seq),
            _ev(t + 2, "job_start", task, seq, worker=0),
            _ev(t + 3, "job_complete", task, seq, worker=0)]


def _finish_in_order(seqs):
    """Run every job of `seqs` through a report-only log, one after the
    other; the log must end holding no slot, and the finished seqs as
    merged half-open intervals."""
    log = RunLog(keep_trace=False)
    for seq in seqs:
        job = _job(0, 9, wcet=1, seq=seq)
        log.theoretical(job)
        log.release(1, job)
        log.start(2, job, 0)
        log.complete(3, job, 0, 1)
        assert not log._accounts.marks
    bounds = []
    for seq in sorted(seqs):
        if bounds and bounds[-1] == seq:
            bounds[-1] = seq + 1
        else:
            bounds += [seq, seq + 1]
    assert log._accounts.done == {"t": bounds}
    log.close({})


class TestFinishedJobs:
    """A job's slot goes when its chain is full, and what it leaves catches
    a later mark as a duplicate, for any seqs, in any order of completion."""

    @settings(max_examples=60, deadline=None)
    @given(seqs=st.lists(st.integers(-20, 20), min_size=1, max_size=12, unique=True),
           data=st.data())
    def test_any_seqs_in_any_order(self, seqs, data):
        trace = [e for i, seq in enumerate(seqs) for e in _chain(10 * i, "t", seq)]
        overheads = compute_overheads(trace)
        assert overheads.release_overhead.count == len(seqs)
        _finish_in_order(seqs)
        # a mark for a finished seq is a duplicate; an unseen seq is a new job
        again = data.draw(st.sampled_from(seqs))
        kind = data.draw(st.sampled_from(["release_theoretical", "job_start", "job_complete"]))
        with pytest.raises(TraceIntegrityError, match=f"^duplicate {kind} for t#{again}$"):
            compute_overheads(trace + [_ev(10 * len(seqs), kind, "t", again, worker=0)])
        fresh = data.draw(st.integers(-30, 30).filter(lambda s: s not in seqs))
        compute_overheads(trace + _chain(10 * len(seqs), "t", fresh))

    @pytest.mark.parametrize("seqs", [[5, 6, 7], [-3, -2, -1, 0, 1], [9, 4, 6, 5, 8, 7]])
    def test_offset_and_negative_seqs(self, seqs):
        trace = [e for i, seq in enumerate(seqs) for e in _chain(10 * i, "t", seq)]
        assert compute_overheads(trace).release_overhead.count == len(seqs)
        _finish_in_order(seqs)


# any text, with the characters CSV quoting turns on drawn often
_TEXT = st.text(st.sampled_from(',"\r\n é') | st.characters(exclude_categories=("Cs",)),
                max_size=8)


class TestCsvRow:
    @settings(max_examples=200, deadline=None)
    @given(
        t=st.integers(0, 2**63),
        kind=_TEXT,
        task=_TEXT,
        seq=st.none() | st.integers(0, 10**6),
        worker=st.none() | st.integers(-1, 64),
        payload=st.dictionaries(_TEXT, _TEXT | st.integers(), max_size=3),
    )
    def test_equals_csv_writer(self, t, kind, task, seq, worker, payload):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(
            (t, kind, task, "" if seq is None else seq, "" if worker is None else worker,
             TraceEvent(t, kind, task, seq, worker, payload).encode_payload())
        )
        assert csv_row(t, kind, task, seq, worker, payload) == buf.getvalue()
