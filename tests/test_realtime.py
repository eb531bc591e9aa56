"""Thread backend: locks, preflight, cooperative scheduling on real time.

Timing assertions here are existence checks, not exact instants; wall-clock
runs on a shared host cannot promise more.  processor_preflight is stubbed
so the suite passes on small machines, with one honest test of the real
check.
"""

import errno
import json
import os
import subprocess
import sys
import threading
from collections import Counter
from types import SimpleNamespace

import pytest

import rtsched.realtime as rt
from rtsched import (
    BackendError,
    ClockSource,
    ConfigurationError,
    MappingScheme,
    PolicyConfig,
    ScheduleTable,
    TaskKind,
    UsageError,
    UserSelect,
    VersionSelection,
    channel_connect,
    channel_decl,
    channel_pop,
    channel_push,
    compute_overheads,
    init,
    ms,
    processor_preflight,
    run_realtime,
)
from rtsched.realtime import FifoTicketLock, current_job_context, latency_probe

from .conftest import _locked_kb


def _rt_config(**kw):
    kw.setdefault("clock_source", ClockSource.MONOTONIC_OS)
    return PolicyConfig(**kw)


class TestPreflight:
    def test_rejects_small_hosts(self, monkeypatch):
        monkeypatch.setattr(rt, "available_cpus", lambda: 1)
        with pytest.raises(BackendError, match="needs 3 processors"):
            processor_preflight(3)

    def test_passes_with_enough(self, monkeypatch):
        monkeypatch.setattr(rt, "available_cpus", lambda: 4)
        processor_preflight(4)

    def test_run_realtime_refuses_wrong_clock(self):
        state = init(PolicyConfig())  # virtual clock
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, wcet_estimate=1000)
        with pytest.raises(ConfigurationError, match="MONOTONIC_OS"):
            run_realtime(state, ms(1))


    @pytest.mark.parametrize("duration", [-5, 0])
    def test_run_realtime_refuses_nonpositive_duration(self, duration):
        # refused before any processor check or thread start
        state = init(_rt_config())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000)
        with pytest.raises(ConfigurationError, match="duration_ns must be > 0"):
            run_realtime(state, duration)
        assert state._backend is None

    @pytest.mark.parametrize("duration", [True, 2.5e6, "1ms"])
    def test_run_realtime_refuses_a_duration_that_is_not_an_int(self, duration,
                                                                preflight_forbidden):
        state = init(_rt_config())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000)
        with pytest.raises(ConfigurationError,
                           match=rf"duration_ns must be > 0 and an int, not {duration!r}"):
            run_realtime(state, duration)
        assert state._backend is None


class TestFifoTicketLock:
    def _grant_order(self, spin):
        lock = FifoTicketLock(spin=spin)
        order = []
        lock.acquire()

        def contender(name):
            lock.acquire()
            order.append(name)
            lock.release()

        threads = []
        for name in ("a", "b", "c"):
            th = threading.Thread(target=contender, args=(name,))
            th.start()
            threads.append(th)
            # wait until this contender holds its ticket before starting
            # the next, pinning the arrival order
            want = len(threads) + 1
            while lock._next_ticket < want:
                pass
        lock.release()
        for th in threads:
            th.join()
        return order

    def test_grants_in_arrival_order(self):
        assert self._grant_order(spin=False) == ["a", "b", "c"]

    def test_spin_variant_keeps_order(self):
        assert self._grant_order(spin=True) == ["a", "b", "c"]

    def test_acquire_reports_wait(self):
        lock = FifoTicketLock()
        assert lock.acquire() >= 0
        lock.release()


class TestRealtimeRuns:
    def test_empty_bodies_meet_releases(self, many_cpus):
        state = init(_rt_config(worker_count=2))
        for i in range(2):
            tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=ms(50))
            state.version_decl(tid, entry=lambda ctx, args: None,
                               wcet_estimate=1000)
        trace, report = run_realtime(state, ms(120))
        assert report.released >= 2
        assert report.completed == report.released or report.truncated
        releases = {
            (e.task, e.job_seq): e.timestamp_ns
            for e in trace if e.kind == "release_theoretical"
        }
        starts = [
            e for e in trace if e.kind == "job_start"
        ]
        assert starts
        for e in starts:
            assert e.timestamp_ns >= releases[(e.task, e.job_seq)]
        assert report.meta["backend"] == "monotonic_os"

    def test_degradation_warns_instead_of_failing(self, many_cpus):
        # pinning to fake processor 63 cannot work here; the run must
        # still complete and say so
        state = init(_rt_config(worker_count=1))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(50))
        state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000)
        _, report = run_realtime(state, ms(60))
        assert any("pin" in w or "unpinned" in w for w in report.warnings)

    def test_body_context_is_visible(self, many_cpus):
        seen = []

        def body(ctx, args):
            seen.append((current_job_context() is ctx, args))

        state = init(_rt_config(worker_count=1))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(50))
        state.version_decl(tid, entry=body, static_args="payload",
                           wcet_estimate=1000)
        run_realtime(state, ms(60))
        assert seen and all(ok and args == "payload" for ok, args in seen)
        assert current_job_context() is None  # outside any body

    def test_user_selector_reads_run_time(self, many_cpus):
        # SelectionContext.now is the release pass's instant, as in simulation
        seen = []

        def pick(task, versions, ctx):
            seen.append(ctx.now)
            return versions[0].version_id

        state = init(_rt_config(worker_count=1, version_selection=VersionSelection.USER))
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(20))
        state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000,
                           select=UserSelect(selector=pick))
        _, report = run_realtime(state, ms(70))
        assert len(seen) == report.released >= 2
        assert seen == sorted(seen) and seen[-1] >= ms(20)

    def test_cooperative_preemption(self, many_cpus):
        state = init(_rt_config(worker_count=1))
        lo = state.task_decl("lo", TaskKind.PERIODIC, period=ms(100))
        state.version_decl(
            lo, entry=lambda ctx, args: ctx.sleep_ns(ms(30)), wcet_estimate=ms(30)
        )
        hi = state.task_decl("hi", TaskKind.PERIODIC, period=ms(20),
                             release_offset=ms(10))
        state.version_decl(hi, entry=lambda ctx, args: None, wcet_estimate=1000)
        trace, report = run_realtime(state, ms(60))
        kinds = [e.kind for e in trace]
        assert "preempt" in kinds and "resume" in kinds
        [p] = [e for e in trace if e.kind == "preempt"][:1]
        assert p.task == "lo" and p.payload["by"] == "hi"
        # this backend models no context switch, so its events carry no switch
        assert all(e.payload == {"by": "hi"} for e in trace if e.kind == "preempt")
        assert all(e.payload == {} for e in trace if e.kind == "resume")
        lo_done = [e for e in trace if e.kind == "job_complete" and e.task == "lo"]
        hi_done = [e for e in trace if e.kind == "job_complete" and e.task == "hi"]
        assert hi_done[0].timestamp_ns < lo_done[0].timestamp_ns

    def test_channel_rendezvous(self, many_cpus):
        state = init(_rt_config(worker_count=2))
        prod = state.task_decl("prod", TaskKind.PERIODIC, period=ms(40))
        cons = state.task_decl("cons", TaskKind.GRAPH_NODE,
                               relative_deadline=ms(40))
        from rtsched import channel_connect, channel_decl

        ch = channel_decl(state, "c", element_size=8, capacity=2)
        channel_connect(state, ch, prod, cons)
        state.version_decl(prod, entry=lambda ctx, args: ctx.push(ch, "x"),
                           wcet_estimate=ms(1))
        got = []
        state.version_decl(cons, entry=lambda ctx, args: got.append(ctx.pop(ch)),
                           wcet_estimate=ms(1))
        trace, report = run_realtime(state, ms(130))
        assert got and all(v == "x" for v in got)
        cons_done = report.tasks.get("cons")
        prod_done = report.tasks.get("prod")
        assert cons_done and prod_done
        assert cons_done.completed <= prod_done.completed

    @pytest.mark.parametrize("retry", [False, True], ids=["plain", "retry"])
    def test_stop_abandons_channel_blocked_bodies(self, many_cpus, retry):
        # each prod job pushes 5 tokens into a capacity-1 channel and cons
        # pops 1, so prod jobs block and nest in one another; once the
        # scheduler stops no cons job drains the channel.  stop() must
        # still return, counting the blocked jobs as unfinished, also when
        # the body retries every push that raises an Exception.
        from rtsched import channel_connect, channel_decl

        state = init(_rt_config(worker_count=1))
        prod = state.task_decl("prod", TaskKind.PERIODIC, period=ms(10))
        cons = state.task_decl("cons", TaskKind.GRAPH_NODE,
                               relative_deadline=ms(10))
        ch = channel_decl(state, "c", element_size=8, capacity=1)
        channel_connect(state, ch, prod, cons)

        def push5(ctx, args):
            sent = 0
            while sent < 5:
                try:
                    ctx.push(ch, "x")
                except Exception:
                    if retry:
                        continue
                    raise
                sent += 1

        state.version_decl(prod, entry=push5, wcet_estimate=ms(1))
        state.version_decl(cons, entry=lambda ctx, args: ctx.pop(ch),
                           wcet_estimate=ms(1))
        out = []
        th = threading.Thread(
            target=lambda: out.append(run_realtime(state, ms(50))), daemon=True
        )
        th.start()
        th.join(timeout=10)
        assert not th.is_alive(), "run_realtime still inside stop() after 10 s"
        trace, report = out[0]
        abandoned = [w for w in report.warnings if "abandoned" in w]
        assert abandoned and report.truncated
        done = Counter(e.task for e in trace if e.kind == "job_complete")
        assert report.tasks["prod"].completed == done["prod"]
        assert report.completed == sum(done.values())
        assert report.released >= report.completed + len(abandoned)

    def test_raising_body_counts_unfinished(self, many_cpus):
        # the 3rd job's body raises while it holds the accelerator; the
        # worker must survive, free the accelerator and count the job
        state = init(_rt_config(worker_count=1))
        gpu = state.hwaccel_decl("gpu")
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))

        def body(ctx, args):
            if ctx.job.seq == 2:
                raise ValueError("boom")

        state.version_decl(tid, entry=body, wcet_estimate=ms(1))
        state.hwaccel_use(tid, 0, gpu)
        trace, report = run_realtime(state, ms(100))
        assert "job t#2 raised ValueError: boom" in report.warnings
        assert "run ended with unfinished jobs: t#2" in report.warnings
        assert report.truncated
        stats = report.tasks["t"]
        assert stats.released == stats.completed + 1
        assert stats.misses == 1 + sum(e.kind == "deadline_miss" for e in trace)
        done = [e.job_seq for e in trace if e.kind == "job_complete"]
        assert 2 not in done and max(done) > 2
        kinds = Counter(e.kind for e in trace)
        assert kinds["accel_acquire"] == kinds["accel_release"] == stats.released

    def test_numeric_names_read_back_as_text(self, many_cpus):
        # the trace is read back from the run's CSV rows: a version "7" and
        # an accelerator "2" stay names, and the overheads re-derive exactly
        state = init(_rt_config(worker_count=1))
        gpu = state.hwaccel_decl("2")
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(5))
        vid = state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=ms(1),
                                 name="7")
        state.hwaccel_use(tid, vid, gpu)
        trace, report = run_realtime(state, ms(60))
        starts = [e.payload for e in trace if e.kind == "job_start"]
        accels = [e.payload for e in trace if e.kind in ("accel_acquire", "accel_release")]
        assert starts and all(p == {"version": "7"} for p in starts)
        assert accels and all(p == {"accel": "2"} for p in accels)
        assert compute_overheads(trace, allow_truncated=report.truncated) == report.overheads

    def test_restart_is_a_fresh_run(self, many_cpus):
        # a task declared between stop() and start() takes part in the
        # second run, whose clock and trace start again at 0
        state = init(_rt_config(worker_count=1))
        a = state.task_decl("a", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(a, entry=lambda ctx, args: None, wcet_estimate=1000)
        run_realtime(state, ms(60))
        b = state.task_decl("b", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(b, entry=lambda ctx, args: None, wcet_estimate=1000)
        trace, report = run_realtime(state, ms(100))
        assert report.tasks["a"].released >= 5
        assert report.tasks["b"].released >= 5
        first = next(e for e in trace if e.kind == "release_effective")
        assert first.job_seq == 0 and first.timestamp_ns < ms(30)

    def test_offline_table_on_threads(self, many_cpus):
        cfg = _rt_config(
            mapping_scheme=MappingScheme.OFFLINE,
            preemptive=False,
            version_selection=VersionSelection.PRESELECTED,
            worker_count=1,
        )
        state = init(cfg)
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(50),
                              virt_core_id=0)
        state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000)
        table = ScheduleTable(ms(50))
        table.add(0, tid, 0, 0)
        state.table = table
        trace, report = run_realtime(state, ms(120))
        assert report.completed >= 2
        assert report.meta["tick_ns"] == ms(50)
        assert report.misses == 0

    @pytest.mark.parametrize("mapping", [MappingScheme.PARTITIONED, MappingScheme.GLOBAL],
                             ids=["partitioned", "global"])
    def test_scheduler_pass(self, many_cpus, release_passes, mapping):
        # a 10 ms tick: the passes at 10 and 50 ms release nothing
        state = init(_rt_config(mapping_scheme=mapping, worker_count=1))
        for name, period in [("a", ms(20)), ("b", ms(30))]:
            tid = state.task_decl(name, TaskKind.PERIODIC, period=period, virt_core_id=0)
            state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000)
        trace, report = run_realtime(state, ms(60))
        assert report.released == report.completed > 0
        kinds = Counter(e.kind for e in trace)
        assert report.overheads.scheduling.count == kinds["tick_begin"] == len(release_passes)
        # one batch per pass under GLOBAL; under PARTITIONED one per pass
        # that released, all on core 0
        batches = len(release_passes) if mapping is MappingScheme.GLOBAL else sum(
            1 for jobs in release_passes if jobs)
        ticks = [e for e in trace if e.kind == "lock_wait" and e.payload["purpose"] == "tick"]
        assert len(ticks) == batches > 0 and all(e.payload["queue"] == 0 for e in ticks)
        assert kinds["release_theoretical"] == kinds["release_effective"] == report.released
        assert compute_overheads(trace, allow_truncated=report.truncated) == report.overheads

    def test_body_blocks_on_pop_until_the_producer_pushes(self, many_cpus):
        # cons is released 5 ms before prod each period and waits in pop;
        # prod's last release, at 105 ms, leaves 55 ms to drain before stop
        state = init(_rt_config(worker_count=2))
        cons = state.task_decl("cons", TaskKind.PERIODIC, period=ms(100))
        prod = state.task_decl("prod", TaskKind.PERIODIC, period=ms(100),
                               release_offset=ms(5))
        ch = channel_decl(state, "c", element_size=8, capacity=1)
        channel_connect(state, ch, prod, cons)
        got = []
        state.version_decl(cons, entry=lambda ctx, args: got.append(ctx.pop(ch)),
                           wcet_estimate=ms(1))
        state.version_decl(prod, entry=lambda ctx, args: ctx.push(ch, ctx.job.seq),
                           wcet_estimate=ms(1))
        trace, report = run_realtime(state, ms(160))
        assert not report.truncated
        assert report.released == report.completed == 4
        assert got == [0, 1]

    def test_report_counts_match_trace(self, many_cpus):
        # one worker; "late" misses its 1 ms deadline on every job
        state = init(_rt_config(worker_count=1))
        for name, deadline in (("ok", None), ("late", ms(1))):
            tid = state.task_decl(name, TaskKind.PERIODIC, period=ms(10),
                                  relative_deadline=deadline)
            state.version_decl(tid, entry=lambda ctx, args: ctx.sleep_ns(ms(2)),
                               wcet_estimate=ms(3))
        trace, report = run_realtime(state, ms(60))
        kinds = Counter(e.kind for e in trace)
        assert report.released == kinds["release_effective"] > 0
        assert report.completed == kinds["job_complete"] > 0
        # a job released but not completed was still queued at stop
        unfinished = report.released - report.completed
        assert unfinished == 0 or report.truncated
        assert report.misses == kinds["deadline_miss"] + unfinished
        assert report.tasks["late"].misses >= report.tasks["late"].completed > 0
        # job_complete carries the instant the response time was taken at
        release = {(e.task, e.job_seq): e.timestamp_ns
                   for e in trace if e.kind == "release_theoretical"}
        for name, st in report.tasks.items():
            assert st.released == sum(
                1 for e in trace if e.kind == "release_effective" and e.task == name
            )
            assert st.response.total == sum(
                e.timestamp_ns - release[(name, e.job_seq)]
                for e in trace if e.kind == "job_complete" and e.task == name
            )

    def test_counts_survive_thread_contention(self, many_cpus):
        # each "burst" job activates "a" eight times; the next scheduler
        # pass releases them together and four workers complete them at
        # nearly the same instant into one TaskStats.  A lost update would
        # break the equalities with the trace.
        state = init(_rt_config(worker_count=4))
        a = state.task_decl("a", TaskKind.APERIODIC, relative_deadline=ms(50))
        state.version_decl(a, entry=lambda ctx, args: None, wcet_estimate=ms(1))

        def burst(ctx, args):
            for _ in range(8):
                state.task_activate(a)

        b = state.task_decl("burst", TaskKind.PERIODIC, period=ms(5))
        state.version_decl(b, entry=burst, wcet_estimate=ms(1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            trace, report = run_realtime(state, ms(100))
        finally:
            sys.setswitchinterval(interval)
        done = Counter(e.task for e in trace if e.kind == "job_complete")
        released = Counter(e.task for e in trace if e.kind == "release_effective")
        assert done["a"] > 8
        assert report.tasks["a"].completed == report.tasks["a"].response.count == done["a"]
        assert report.tasks["a"].released == released["a"]


class TestChannelApi:
    def test_value_travels_between_bodies(self, many_cpus):
        state = init(_rt_config(worker_count=2))
        prod = state.task_decl("prod", TaskKind.PERIODIC, period=ms(20))
        cons = state.task_decl("cons", TaskKind.GRAPH_NODE,
                               relative_deadline=ms(20))
        ch = channel_decl(state, "c", element_size=8, capacity=1)
        channel_connect(state, ch, prod, cons)
        got = []
        state.version_decl(
            prod, entry=lambda ctx, args: channel_push(state, ch, ctx.job.seq),
            wcet_estimate=ms(1),
        )
        state.version_decl(
            cons, entry=lambda ctx, args: got.append(channel_pop(state, ch)),
            wcet_estimate=ms(1),
        )
        _, report = run_realtime(state, ms(70))
        assert got and got == list(range(len(got)))
        assert report.tasks["cons"].completed == len(got)

    @pytest.mark.parametrize("call", [
        lambda state: channel_push(state, 0, "x"),
        lambda state: channel_pop(state, 0),
    ], ids=["push", "pop"])
    def test_outside_a_body_is_refused(self, call):
        state = init(_rt_config(worker_count=1))
        channel_decl(state, "c", element_size=8, capacity=1)
        with pytest.raises(UsageError, match="outside a running job"):
            call(state)


class TestLatencyProbe:
    def test_loops_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="loops must be positive"):
            latency_probe(loops=0)

    def test_threads_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="threads"):
            latency_probe(threads=0)

    @pytest.mark.parametrize("arg, value", [
        ("period_ns", 0), ("period_ns", -1), ("period_ns", 2.5e6), ("period_ns", True),
        ("loops", 2.5), ("loops", True), ("threads", 1.0), ("threads", True),
    ])
    def test_each_argument_is_a_positive_int(self, arg, value, preflight_forbidden):
        with pytest.raises(ConfigurationError,
                           match=rf"^{arg} must be positive and an int, not {value!r}$"):
            latency_probe(**{arg: value})

    def test_shape_and_pooling(self, many_cpus):
        stats, warnings = latency_probe(threads=2, period_ns=ms(20), loops=3)
        assert all(isinstance(w, str) for w in warnings)
        assert set(stats) == {"probe0", "probe1", "all"}
        assert stats["all"].count == stats["probe0"].count + stats["probe1"].count
        assert stats["all"].count >= 2
        assert stats["all"].min >= 0
        assert stats["all"].min <= stats["all"].avg <= stats["all"].max


class _FakeLibc:
    """Stands in for libc: records each memory-lock call with the names of
    the rtsched threads alive when it was made."""

    def __init__(self):
        self.calls = []
        self.mlockall_result = 0

    def _record(self, *call):
        alive = sorted(t.name for t in threading.enumerate() if t.name.startswith("rtsched-"))
        self.calls.append((*call, alive))

    def mlockall(self, flags):
        self._record("mlockall", flags)
        return self.mlockall_result

    def munlockall(self):
        self._record("munlockall")
        return 0


@pytest.fixture
def fake_libc(monkeypatch):
    libc = _FakeLibc()
    monkeypatch.setattr(rt, "ctypes", SimpleNamespace(
        CDLL=lambda name, use_errno=False: libc, get_errno=lambda: errno.EPERM))
    return libc


def _probe_state():
    state = init(_rt_config(worker_count=1))
    tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(5))
    state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000)
    return state


_MEMORY_SCRIPT = """
import json
import rtsched.realtime as rt
from rtsched import ClockSource, PolicyConfig, TaskKind, init, ms, run_realtime

def status_kb(key):
    with open("/proc/self/status") as fp:
        return next(int(line.split()[1]) for line in fp if line.startswith(key + ":"))

rt.processor_preflight = lambda required: None
state = init(PolicyConfig(worker_count=1, clock_source=ClockSource.MONOTONIC_OS))
tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(5))
state.version_decl(tid, entry=lambda ctx, args: None, wcet_estimate=1000)
before = status_kb("VmRSS")
_, report = run_realtime(state, ms(100))
print(json.dumps({"rss_kb": status_kb("VmRSS") - before, "locked_kb": status_kb("VmLck"),
                  "warnings": report.warnings}))
"""


class TestMemoryLock:
    """A run locks memory on fault from start to stop; overlapping runs
    share one lock, which the last to stop drops."""

    def test_a_run_locks_at_start_and_unlocks_after_the_joins(self, many_cpus, fake_libc):
        _, report = run_realtime(_probe_state(), ms(30))
        assert fake_libc.calls == [("mlockall", 7, []), ("munlockall", [])]
        assert not any("lock memory" in w for w in report.warnings)
        assert rt._mlock_holders == 0

    def test_a_failing_lock_warns_and_never_unlocks(self, many_cpus, fake_libc):
        fake_libc.mlockall_result = -1
        _, report = run_realtime(_probe_state(), ms(30))
        assert fake_libc.calls == [("mlockall", 7, [])]
        assert any(w.startswith("cannot lock memory") for w in report.warnings)
        assert rt._mlock_holders == 0

    def test_overlapping_runs_lock_once_and_unlock_at_the_last_stop(self, many_cpus,
                                                                    fake_libc):
        first, second = _probe_state(), _probe_state()
        first.start()
        second.start()
        first.stop()
        assert [call[0] for call in fake_libc.calls] == ["mlockall"]
        second.stop()
        assert [call[0] for call in fake_libc.calls] == ["mlockall", "munlockall"]
        assert fake_libc.calls[-1][-1] == []
        assert rt._mlock_holders == 0

    def test_a_thread_that_cannot_start_ends_the_run_and_its_lock(self, many_cpus,
                                                                  fake_libc, monkeypatch):
        start = threading.Thread.start

        def failing(th):
            if th.name == "rtsched-sched":
                raise RuntimeError("can't start new thread")
            start(th)

        monkeypatch.setattr(threading.Thread, "start", failing)
        state = _probe_state()
        with pytest.raises(RuntimeError, match="can't start new thread"):
            state.start()
        assert fake_libc.calls == [("mlockall", 7, []), ("munlockall", [])]
        assert rt._mlock_holders == 0

    @pytest.mark.skipif(_locked_kb() is None, reason="needs VmLck in /proc/self/status")
    def test_a_run_keeps_resident_only_what_it_touches(self):
        # in a fresh interpreter, so earlier tests' pages do not count; a
        # locked stack that is filled in whole costs 8 MiB per thread
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        done = subprocess.run(
            [sys.executable, "-c", _MEMORY_SCRIPT], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")), timeout=60,
        )
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        if any(w.startswith("cannot lock memory") for w in seen["warnings"]):
            pytest.skip("this host refuses mlockall")
        assert seen["rss_kb"] < 8 * 1024
        assert seen["locked_kb"] == 0
