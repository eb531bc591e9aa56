"""OS-thread backend: the same scheduling core driven by the monotonic clock.

One scheduler thread wakes every tick and runs the core's pass, filling
each ready queue under its FIFO ticket lock.  Worker threads pull jobs and
run their entry callables.  Preemption is cooperative: bodies poll at safe
points (yield_point, channel operations) and dispatch higher-priority work
in a nested frame, so the preemption stack is literally the Python call
stack and a preempted job resumes exactly where it stopped.

Timing is best effort unless the process may pin threads, lock memory and
elevate itself to a real-time scheduling class; every capability that
cannot be obtained degrades to a warning in the run report.  Channel waits
poll in 50 microsecond slices so a blocked body still honours preemption.

Memory is locked on fault (mlockall with MCL_ONFAULT, Linux 4.4 and later):
a page is locked when first touched, so a thread's stack is resident only
as deep as the thread uses it, and no locked page is swapped out.  The
lock is process-wide, so runs that overlap share it: the first run to
start takes it and the last to stop drops it with munlockall, which also
drops any lock the host process took itself.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time

from .errors import BackendError, ConfigurationError
from .graph import GraphInfo
from .model import (
    ClockSource,
    MappingScheme,
    MiddlewareState,
    PolicyConfig,
    PriorityAssignment,
    TaskKind,
    VersionSelection,
    WaitingStrategy,
    check_int,
    init,
    ms,
    task_decl,
    version_decl,
)
from .offline import table_jobs
from .online import Job, SchedulerCore
from .tracing import RunLog, RunReport, Stat, TraceEvent
from .versions import AcceleratorRegistry, SelectionContext

_POLL_S = 50e-6  # channel wait slice
_MCL_FLAGS = 7  # MCL_CURRENT | MCL_FUTURE | MCL_ONFAULT

_mlock_guard = threading.Lock()  # guards _mlock_holders
_mlock_holders = 0  # running backends that share the process's memory lock

_tls = threading.local()


def current_job_context():
    """The JobContext of the calling thread, or None outside a body."""
    return getattr(_tls, "ctx", None)


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def processor_preflight(required: int) -> None:
    """The real backend refuses to start without a processor per worker
    plus one for the scheduler; anything less makes the timing claims
    meaningless."""
    have = available_cpus()
    if have < required:
        raise BackendError(
            f"real-time backend needs {required} processors "
            f"(one per worker plus the scheduler), found {have}"
        )


class FifoTicketLock:
    """Mutex granting strictly in arrival order.

    acquire() returns the wait in ns.  With spin=True waiters burn the CPU
    instead of sleeping on the condition, keeping the FIFO grant order:
    that spinning ticket lock is what LockingStrategy.LOCK_FREE builds.
    No lock-free queue is built.
    """

    def __init__(self, *, spin: bool = False):
        self._cond = threading.Condition()
        self._next_ticket = 0
        self._serving = 0
        self._spin = spin

    def acquire(self) -> int:
        t0 = time.monotonic_ns()
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            if self._spin:
                while self._serving != ticket:
                    self._cond.release()
                    time.sleep(0)  # let the holder progress
                    self._cond.acquire()
            else:
                while self._serving != ticket:
                    self._cond.wait()
        return time.monotonic_ns() - t0

    def release(self) -> None:
        with self._cond:
            self._serving += 1
            self._cond.notify_all()


class _Abandoned(BaseException):
    """Unwinds a body that is blocked on a channel when the run stops.  A
    BaseException, as GeneratorExit is, so a body's `except Exception`
    cannot catch it and poll on."""


class JobContext:
    """Handle a running body uses to talk to the middleware."""

    def __init__(self, backend: "RealtimeBackend", job: Job, worker: int):
        self.backend = backend
        self.job = job
        self.worker = worker
        self.stolen_ns = 0  # time spent running nested higher-priority work

    def now_ns(self) -> int:
        return self.backend.now_ns()

    def yield_point(self) -> None:
        """Safe point: runs pending higher-priority work, then returns."""
        be = self.backend
        if be.preempt_flags[self.worker].is_set():
            be.preempt_flags[self.worker].clear()
            self.stolen_ns += be.nested_dispatch(self.worker, self.job)

    def push(self, channel_id: int, value=None) -> None:
        core = self.backend.core
        self._when(core.channels[channel_id].can_push, core.push, channel_id, value)

    def pop(self, channel_id: int):
        st = self.backend.core.channels[channel_id]
        return self._when(st.can_pop, st.pop)

    def _when(self, ready, op, *args):
        """op(*args) under the channel lock once ready() holds, polling in
        slices while the channel blocks.  Once the run stops no scheduler
        pass will move the channel, so a blocked body is abandoned."""
        be = self.backend
        while True:
            with be.channels_lock:
                if ready():
                    self.job.channel_blocked = False
                    return op(*args)
                self.job.channel_blocked = True
            if be._stopping.is_set():
                raise _Abandoned
            self.yield_point()
            time.sleep(_POLL_S)

    def sleep_ns(self, duration: int) -> None:
        """Busy portion stand-in: sleeps in slices, honouring preemption.
        Time stolen by nested dispatch extends the end so the body still
        accounts for `duration` of its own."""
        stolen_before = self.stolen_ns
        end = time.monotonic_ns() + duration
        while True:
            left = end + (self.stolen_ns - stolen_before) - time.monotonic_ns()
            if left <= 0:
                return
            time.sleep(min(left / 1e9, _POLL_S))
            self.yield_point()


class RealtimeBackend:
    """Threaded execution of one run of a validated state.  Each start()
    builds a fresh one; `graph` is the analysis the run was validated with."""

    def __init__(self, state: MiddlewareState, graph: GraphInfo):
        self.state = state
        cfg = state.config
        self.registry = AcceleratorRegistry(len(state.accelerators))
        self.select_ctx = SelectionContext()
        self.core = SchedulerCore(state, graph, self.registry, self.select_ctx)
        self.channels_lock = threading.Lock()
        spin = cfg.locking_strategy.name == "LOCK_FREE"
        self.queue_locks = [FifoTicketLock(spin=spin) for _ in self.core.queues]
        self.reg_mutex = threading.RLock()  # cross-queue accelerator state
        self.work_conds = [threading.Condition() for _ in self.core.queues]
        self.preempt_flags = [threading.Event() for _ in range(cfg.worker_count)]
        self.log = RunLog(accel_names=[a.name for a in state.accelerators],
                          task_names=[t.name for t in state.tasks])
        self.trace_lock = threading.Lock()  # guards log, _degraded
        self.t0 = 0
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self._degraded: set[str] = set()
        self._holds_mlock = False

    # ------------------------------------------------------- plumbing

    def now_ns(self) -> int:
        return time.monotonic_ns() - self.t0

    def activate(self, task_id: int, now: int | None = None) -> int:
        """Hand an activation request to the core; returns its release."""
        if now is None:
            now = self.now_ns()
        with self.reg_mutex:
            return self.core.activate(task_id, now)

    def _warn_once(self, key: str, message: str) -> None:
        with self.trace_lock:
            if key not in self._degraded:
                self._degraded.add(key)
                self.log.report.warnings.append(message)

    def _try_elevate(self) -> None:
        try:
            os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(10))
        except (PermissionError, OSError):
            self._warn_once(
                "sched_fifo",
                "cannot enter SCHED_FIFO (needs CAP_SYS_NICE); timing is best effort",
            )

    def _try_pin(self, cpu: int) -> None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            self._warn_once("affinity", f"cannot pin to processor {cpu}; running unpinned")

    def _try_mlock(self) -> None:
        """Join the process's memory lock, taking it when no running
        backend holds it.  A run whose mlockall fails warns and holds
        nothing."""
        global _mlock_holders
        with _mlock_guard:
            if _mlock_holders == 0:
                try:
                    libc = ctypes.CDLL("libc.so.6", use_errno=True)
                    if libc.mlockall(_MCL_FLAGS) != 0:
                        raise OSError(ctypes.get_errno(), "mlockall")
                except OSError:
                    self._warn_once(
                        "mlock", "cannot lock memory (mlockall failed); page faults possible"
                    )
                    return
            _mlock_holders += 1
            self._holds_mlock = True

    def _munlock(self) -> None:
        """Leave the memory lock; the last holder to leave unlocks."""
        global _mlock_holders
        with _mlock_guard:
            if not self._holds_mlock:
                return
            self._holds_mlock = False
            _mlock_holders -= 1
            if _mlock_holders == 0:
                ctypes.CDLL("libc.so.6").munlockall()

    # ------------------------------------------------------ lifecycle

    def start(self) -> None:
        cfg = self.state.config
        self._try_mlock()
        self.t0 = time.monotonic_ns()
        if cfg.mapping_scheme is MappingScheme.OFFLINE:
            for core_id in sorted(self.state.table.cores):
                th = threading.Thread(
                    target=self._offline_loop, args=(core_id,), daemon=True,
                    name=f"rtsched-core{core_id}",
                )
                self._threads.append(th)
        else:
            for w in range(cfg.worker_count):
                th = threading.Thread(
                    target=self._worker_loop, args=(w,), daemon=True,
                    name=f"rtsched-worker{w}",
                )
                self._threads.append(th)
            th = threading.Thread(
                target=self._scheduler_loop, daemon=True, name="rtsched-sched"
            )
            self._threads.append(th)
        try:
            for th in self._threads:
                th.start()
        except BaseException:
            self.stop()  # a thread that cannot start ends the run
            raise

    def stop(self) -> None:
        self._stopping.set()
        for cond in self.work_conds:
            with cond:
                cond.notify_all()
        for th in self._threads:
            if th.is_alive():  # not one that failed to start
                th.join()
        self._munlock()

    def collect(self) -> tuple[list[TraceEvent], RunReport]:
        """Trace and report of this run.  Call once, after stop.  The jobs
        the log holds open are unfinished: bodies that failed, and jobs a
        pass racing stop() queued after the workers had left."""
        return self.log.close({
            "backend": ClockSource.MONOTONIC_OS.value,
            "workers": self.state.config.worker_count,
            "tick_ns": self.core.tick,
        })

    # ------------------------------------------------------ scheduler

    def _sleep_until(self, target_ns: int) -> None:
        spin = self.state.config.waiting_strategy is WaitingStrategy.SPIN
        while not self._stopping.is_set():
            left = self.t0 + target_ns - time.monotonic_ns()
            if left <= 0:
                return
            if spin:
                continue
            time.sleep(min(left / 1e9, 0.001))

    def _scheduler_loop(self) -> None:
        self._try_elevate()
        self._try_pin(available_cpus() - 1)  # after workers took 0..n-1
        k = 0
        while not self._stopping.is_set():
            self._sleep_until(k * self.core.tick)
            if self._stopping.is_set():
                return
            now = self.now_ns()
            self._sched_pass(now)
            k = now // self.core.tick + 1

    def _sched_pass(self, now: int) -> None:
        """One tick: release, then fill each batch under its queue's lock
        (GLOBAL takes lock 0 before the scan), then record the pass in one
        go."""
        core = self.core
        if core.global_mapping:
            waited = self.queue_locks[0].acquire()
        t_begin = self.now_ns()
        with self.reg_mutex, self.channels_lock:
            self.select_ctx.now = now
            batches = core.group(core.release(now))
        fills = []
        for qi, jobs in batches:
            if not core.global_mapping:
                waited = self.queue_locks[qi].acquire()
            with self.reg_mutex:
                core.fill(qi, jobs)
            fills.append((qi, waited, self.now_ns(), jobs))
            self.queue_locks[qi].release()
            self._post_insert(qi)
        t_end = self.now_ns()
        with self.trace_lock:
            self.log.tick_begin(t_begin)
            for qi, waited, t, jobs in fills:
                self.log.tick_wait(t, waited, qi)
                self.log.theoretical(jobs)
                self.log.release(t, jobs)
            self.log.tick_end(t_end)

    def _post_insert(self, qi: int) -> None:
        with self.work_conds[qi]:
            self.work_conds[qi].notify_all()
        if self.state.config.preemptive:
            for w in self.core.workers_of_queue(qi):
                self.preempt_flags[w].set()

    # -------------------------------------------------------- workers

    def _locked_pick(self, w: int, qi: int, stack_top: Job | None):
        waited = self.queue_locks[qi].acquire()
        t_grant = self.now_ns()
        try:
            with self.reg_mutex:
                self.select_ctx.now = t_grant
                action, job, acquired = self.core.pick_next(qi, stack_top)
        finally:
            t = self.now_ns()
            self.queue_locks[qi].release()
        with self.trace_lock:
            self.log.get_task_wait(t, w, waited, t - t_grant, action)
            self.log.accels(t, "accel_acquire", job, w, acquired)
        return action, job

    def _worker_loop(self, w: int) -> None:
        self._try_elevate()
        self._try_pin(w % max(1, available_cpus()))
        qi = self.core.queue_of_worker(w)
        cond = self.work_conds[qi]
        while True:
            action, job = self._locked_pick(w, qi, None)
            if action == "start":
                self._run_job(w, job)
                continue
            if self._stopping.is_set() and not len(self.core.queues[qi]):
                return
            with cond:
                cond.wait(timeout=0.001)

    def nested_dispatch(self, w: int, interrupted: Job) -> int:
        """Runs higher-priority jobs on top of `interrupted` (LIFO).
        Returns the ns consumed so the body can discount stolen time."""
        qi = self.core.queue_of_worker(w)
        t_in = time.monotonic_ns()
        first = True
        while True:
            action, job = self._locked_pick(w, qi, interrupted)
            if action != "start":
                break
            if first:
                first = False
                with self.trace_lock:
                    self.log.preempt(self.now_ns(), interrupted, w, job.task.name)
            self._run_job(w, job)
        if not first:
            with self.trace_lock:
                self.log.resume(self.now_ns(), interrupted, w)
        return time.monotonic_ns() - t_in

    def _run_job(self, w: int, job: Job) -> None:
        ctx = JobContext(self, job, w)
        prev = getattr(_tls, "ctx", None)
        _tls.ctx = ctx
        t_start = self.now_ns()
        with self.trace_lock:
            self.log.start(t_start, job, w)
        failure = None  # why the body did not finish
        try:
            entry = job.version.entry
            if entry is None:
                ctx.sleep_ns(job.version.wcet_estimate)
            else:
                entry(ctx, job.version.static_args)
        except _Abandoned:
            failure = "abandoned at stop, blocked on a channel"
        except Exception as e:
            failure = f"raised {type(e).__name__}: {e}"
        finally:
            _tls.ctx = prev
        t_done = self.now_ns()
        with self.reg_mutex:
            freed, notify = self.core.free_accelerators(job)
        for qi in notify:
            self._post_insert(qi)
        with self.trace_lock:
            if failure:
                self.log.report.warnings.append(f"job {job.task.name}#{job.seq} {failure}")
            else:
                self.log.complete(t_done, job, w, t_done - t_start - ctx.stolen_ns)
            self.log.accels(t_done, "accel_release", job, w, freed)

    # ------------------------------------------------------- offline

    def _offline_loop(self, core_id: int) -> None:
        self._try_elevate()
        self._try_pin(core_id % max(1, available_cpus()))
        for release, job in table_jobs(self.state, core_id):
            self._sleep_until(release)
            if self._stopping.is_set():
                return
            with self.trace_lock:
                self.log.table_release(self.now_ns(), job, core_id)
            self._run_job(core_id, job)


# --------------------------------------------------------- entry points


def run_realtime(
    state: MiddlewareState, duration_ns: int
) -> tuple[list[TraceEvent], RunReport]:
    """Start the thread backend, run for an int duration_ns > 0 of wall time,
    stop, and return (trace, report).  The state is left STOPPED.  The
    run keeps its trace as CSV lines and returns the TraceEvents read back
    from them, as run_simulation does with keep_trace=True.

    Each call is one run with its own clock, trace and report.  stop() lets
    the jobs already released finish, so the call returns after duration_ns
    plus that backlog.  A job whose body raises, or is still blocked on a
    channel at stop, is counted unfinished with a warning naming it.

    Memory is locked from start to stop, page by page as the run first
    touches it (see the module docstring); the call returns with the lock
    dropped unless another run still holds it."""
    if state.config.clock_source is not ClockSource.MONOTONIC_OS:
        raise ConfigurationError("run_realtime requires clock_source=MONOTONIC_OS")
    check_int("duration_ns", duration_ns, 1, "> 0", ConfigurationError)
    processor_preflight(state.config.worker_count + 1)
    state.start()
    try:
        time.sleep(duration_ns / 1e9)
    finally:
        state.stop()
    backend: RealtimeBackend = state._backend
    return backend.collect()


def latency_probe(
    *,
    threads: int = 1,
    period_ns: int = ms(10),
    loops: int = 50,
    priority_assignment: PriorityAssignment = PriorityAssignment.EDF,
) -> tuple[dict[str, Stat], list[str]]:
    """Release-to-start latency of empty periodic jobs on this host.

    Spawns `threads` probe tasks, one per worker, each released every
    `period_ns` for `loops` activations, and returns the distribution of
    job_start - release_theoretical per probe plus a pooled "all" entry,
    with the run's warnings (e.g. no SCHED_FIFO, pinning or locked memory).
    The shape mirrors the cyclictest-style min/avg/max summary.  threads,
    period_ns and loops must be ints > 0, checked before a thread starts."""
    for name, value in (("threads", threads), ("period_ns", period_ns), ("loops", loops)):
        check_int(name, value, 1, "positive", ConfigurationError)
    cfg = PolicyConfig(
        mapping_scheme=MappingScheme.GLOBAL,
        priority_assignment=priority_assignment,
        worker_count=threads,
        clock_source=ClockSource.MONOTONIC_OS,
        version_selection=VersionSelection.PRESELECTED,
    )
    state = init(cfg)
    for i in range(threads):
        tid = task_decl(state, f"probe{i}", TaskKind.PERIODIC, period=period_ns)
        version_decl(state, tid, entry=lambda ctx, args: None, wcet_estimate=1000)
    trace, report = run_realtime(state, period_ns * loops)
    releases: dict[tuple[str, int], int] = {}
    stats: dict[str, Stat] = {f"probe{i}": Stat() for i in range(threads)}
    stats["all"] = Stat()
    for ev in trace:
        if ev.kind == "release_theoretical":
            releases[(ev.task, ev.job_seq)] = ev.timestamp_ns
        elif ev.kind == "job_start" and (ev.task, ev.job_seq) in releases:
            lat = ev.timestamp_ns - releases[(ev.task, ev.job_seq)]
            stats[ev.task].add(lat)
            stats["all"].add(lat)
    return stats, report.warnings
