"""OS-thread backend: the same scheduling core driven by the monotonic clock.

One scheduler thread wakes every tick, scans for due releases, and fills
the ready queue(s) under a FIFO ticket lock.  Worker threads pull jobs and
run their entry callables.  Preemption is cooperative: bodies poll at safe
points (yield_point, channel operations) and dispatch higher-priority work
in a nested frame, so the preemption stack is literally the Python call
stack and a preempted job resumes exactly where it stopped.

Timing is best effort unless the process may pin threads, lock memory and
elevate itself to a real-time scheduling class; every capability that
cannot be obtained degrades to a warning in the run report.  Channel waits
poll in 50 microsecond slices so a blocked body still honours preemption.
"""

from __future__ import annotations

import copy
import ctypes
import os
import threading
import time

from .errors import BackendError, ConfigurationError
from .graph import ChannelState
from .model import (
    ClockSource,
    MappingScheme,
    MiddlewareState,
    PolicyConfig,
    PriorityAssignment,
    TaskKind,
    VersionSelection,
    WaitingStrategy,
    init,
    ms,
    task_decl,
    version_decl,
)
from .offline import table_jobs
from .online import Job, SchedulerCore, scheduler_tick_period
from .tracing import SCHEDULER_WORKER, RunReport, Stat, TraceEvent, compute_overheads
from .versions import AcceleratorRegistry, SelectionContext

_POLL_S = 50e-6  # channel wait slice

_tls = threading.local()


def current_job_context():
    """The JobContext of the calling thread, or None outside a body."""
    return getattr(_tls, "ctx", None)


def available_cpus() -> int:
    return len(os.sched_getaffinity(0))


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
    instead of sleeping on the condition; that is the closest Python gets
    to the lock-free queue variant, and it keeps the FIFO grant order.
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
        be = self.backend
        st = be.channels[channel_id]
        while True:
            with be.channels_lock:
                if st.can_push():
                    st.push(value)
                    self.job.channel_blocked = False
                    return
                self.job.channel_blocked = True
            self.yield_point()
            time.sleep(_POLL_S)

    def pop(self, channel_id: int):
        be = self.backend
        st = be.channels[channel_id]
        while True:
            with be.channels_lock:
                if st.can_pop():
                    value = st.pop()
                    self.job.channel_blocked = False
                    return value
                self.job.channel_blocked = True
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
    """Threaded execution of a validated state.  Created by start()."""

    def __init__(self, state: MiddlewareState):
        self.state = state
        cfg = state.config
        self.registry = AcceleratorRegistry(len(state.accelerators))
        self.select_ctx = SelectionContext()
        self.core = SchedulerCore(state, self.registry, self.select_ctx)
        self.channels = {c.channel_id: ChannelState(c) for c in state.channels}
        self.channels_lock = threading.Lock()
        spin = cfg.locking_strategy.name == "LOCK_FREE"
        self.queue_locks = [FifoTicketLock(spin=spin) for _ in self.core.queues]
        self.reg_mutex = threading.RLock()  # cross-queue accelerator state
        self.work_conds = [threading.Condition() for _ in self.core.queues]
        self.preempt_flags = [threading.Event() for _ in range(cfg.worker_count)]
        self.trace: list[TraceEvent] = []
        self.trace_lock = threading.Lock()  # guards trace and report
        self.report = RunReport()  # counted as jobs release and complete
        self.warnings: list[str] = []
        self.t0 = 0
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self._degraded: set[str] = set()

    # ------------------------------------------------------- plumbing

    def now_ns(self) -> int:
        return time.monotonic_ns() - self.t0

    now = now_ns  # lifecycle hooks use the shorter name

    def emit(self, kind: str, *, task: str = "", seq: int | None = None,
             worker: int | None = None, t: int | None = None, **payload) -> None:
        ev = TraceEvent(
            timestamp_ns=self.now_ns() if t is None else t,
            kind=kind,
            task=task,
            job_seq=seq,
            worker=worker,
            payload=payload,
        )
        with self.trace_lock:
            self.trace.append(ev)

    def _warn_once(self, key: str, message: str) -> None:
        if key not in self._degraded:
            self._degraded.add(key)
            self.warnings.append(message)

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
        try:
            libc = ctypes.CDLL("libc.so.6", use_errno=True)
            if libc.mlockall(3) != 0:  # MCL_CURRENT | MCL_FUTURE
                raise OSError(ctypes.get_errno(), "mlockall")
        except OSError:
            self._warn_once(
                "mlock", "cannot lock memory (mlockall failed); page faults possible"
            )

    # ------------------------------------------------------ lifecycle

    def start(self) -> int:
        cfg = self.state.config
        self._stopping.clear()
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
        for th in self._threads:
            th.start()
        return self.t0

    def stop(self) -> None:
        self._stopping.set()
        for cond in self.work_conds:
            with cond:
                cond.notify_all()
        for th in self._threads:
            th.join()
        self._threads.clear()

    def cleanup(self) -> None:
        self._stopping.set()

    def collect(self) -> tuple[list[TraceEvent], RunReport]:
        """Trace and report of everything run so far (call after stop)."""
        with self.trace_lock:
            trace = sorted(self.trace, key=lambda e: e.timestamp_ns)
            report = copy.deepcopy(self.report)
        live = [j.task.name for q in self.core.queues for j in q.items]
        if live:
            report.warnings.append(f"{len(live)} jobs still queued at stop")
        report.count_unfinished(live)
        report.warnings.extend(self.warnings)
        report.overheads = compute_overheads(trace, allow_truncated=True)
        report.meta = {
            "backend": ClockSource.MONOTONIC_OS.value,
            "workers": self.state.config.worker_count,
            "tick_ns": self.core_tick(),
        }
        return trace, report

    def core_tick(self) -> int:
        if self.state.config.mapping_scheme is MappingScheme.OFFLINE:
            return self.state.table.table_period
        return scheduler_tick_period(self.state)

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
        tick = self.core_tick()
        k = 0
        while not self._stopping.is_set():
            self._sleep_until(k * tick)
            if self._stopping.is_set():
                return
            now = self.now_ns()
            self._sched_pass(now)
            k = now // tick + 1

    def _consume_activations(self) -> None:
        pend = self.state.pending_activations
        items = pend[:]
        del pend[: len(items)]
        for release, task_id in items:
            self.core.enqueue_release(release, task_id)

    def _sched_pass(self, now: int) -> None:
        core = self.core
        self._consume_activations()
        if core.global_mapping:
            waited = self.queue_locks[0].acquire()
            self.emit("lock_wait", worker=SCHEDULER_WORKER, wait=waited, purpose="tick", queue=0)
            self.emit("tick_begin", worker=SCHEDULER_WORKER)
            with self.reg_mutex:
                jobs = core.due_releases(now)
                with self.channels_lock:
                    jobs.extend(core.graph_activations(self.channels, now))
                for job in jobs:
                    self.emit("release_theoretical", task=job.task.name, seq=job.seq,
                              t=job.abs_release)
                    core.queues[0].insert(job)
                core.queues[0].sort()
            for job in jobs:
                self._release(job)
            self.emit("tick_end", worker=SCHEDULER_WORKER)
            self.queue_locks[0].release()
            self._post_insert(0)
        else:
            self.emit("tick_begin", worker=SCHEDULER_WORKER)
            with self.reg_mutex:
                jobs = core.due_releases(now)
                with self.channels_lock:
                    jobs.extend(core.graph_activations(self.channels, now))
            by_queue: dict[int, list[Job]] = {}
            for job in jobs:
                self.emit("release_theoretical", task=job.task.name, seq=job.seq,
                          t=job.abs_release)
                by_queue.setdefault(core.queue_for(job), []).append(job)
            for qi in sorted(by_queue):
                waited = self.queue_locks[qi].acquire()
                self.emit("lock_wait", worker=SCHEDULER_WORKER, wait=waited,
                          purpose="tick", queue=qi)
                for job in by_queue[qi]:
                    core.queues[qi].insert(job)
                core.queues[qi].sort()
                for job in by_queue[qi]:
                    self._release(job)
                self.queue_locks[qi].release()
                self._post_insert(qi)
            self.emit("tick_end", worker=SCHEDULER_WORKER)

    def _release(self, job: Job, worker: int | None = None) -> None:
        """The job becomes dispatchable now: count it and trace it."""
        with self.trace_lock:
            self.report.count_release(job.task.name)
        self.emit("release_effective", task=job.task.name, seq=job.seq, worker=worker)

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
                action, job, acquired = self.core.pick_next(qi, stack_top)
        finally:
            held = self.now_ns() - t_grant
            self.queue_locks[qi].release()
        self.emit("lock_wait", worker=w, wait=waited, held=held,
                  purpose="get_task", got=action)
        for a in acquired:
            self.emit("accel_acquire", task=job.task.name, seq=job.seq, worker=w,
                      accel=self.state.accelerators[a].name)
        return action, job, acquired

    def _worker_loop(self, w: int) -> None:
        self._try_elevate()
        self._try_pin(w % max(1, available_cpus()))
        qi = 0 if self.core.global_mapping else w
        cond = self.work_conds[qi]
        while True:
            action, job, _ = self._locked_pick(w, qi, None)
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
        qi = 0 if self.core.global_mapping else w
        t_in = time.monotonic_ns()
        first = True
        while True:
            action, job, _ = self._locked_pick(w, qi, interrupted)
            if action != "start":
                break
            if first:
                first = False
                self.emit("preempt", task=interrupted.task.name, seq=interrupted.seq,
                          worker=w, by=job.task.name)
            self._run_job(w, job)
        if not first:
            self.emit("resume", task=interrupted.task.name, seq=interrupted.seq, worker=w)
        return time.monotonic_ns() - t_in

    def _run_job(self, w: int, job: Job) -> None:
        job.worker = w
        ctx = JobContext(self, job, w)
        prev = getattr(_tls, "ctx", None)
        _tls.ctx = ctx
        t_start = self.now_ns()
        self.emit("job_start", task=job.task.name, seq=job.seq, worker=w,
                  version=job.version.name)
        try:
            entry = job.version.entry
            if entry is None:
                ctx.sleep_ns(job.version.wcet_estimate)
            else:
                entry(ctx, job.version.static_args)
        finally:
            _tls.ctx = prev
        t_done = self.now_ns()
        body_ns = t_done - t_start - ctx.stolen_ns
        with self.trace_lock:
            late = self.report.count_completion(
                job.task.name, job.abs_release, job.abs_deadline, t_done
            )
        self.emit("job_complete", task=job.task.name, seq=job.seq, worker=w)
        if body_ns > job.version.wcet_estimate:
            self.emit("overrun", task=job.task.name, seq=job.seq, worker=w,
                      over=body_ns - job.version.wcet_estimate)
        if late > 0:
            self.emit("deadline_miss", task=job.task.name, seq=job.seq, worker=w, late=late)
        with self.reg_mutex:
            freed = self.registry.release_all(job)
            woken = self.core.unblock_accel_waiters(freed) if freed else []
        for a in freed:
            self.emit("accel_release", task=job.task.name, seq=job.seq, worker=w,
                      accel=self.state.accelerators[a].name)
        for other in sorted({self.core.queue_for(j) for j in woken}):
            self._post_insert(other)

    # ------------------------------------------------------- offline

    def _offline_loop(self, core_id: int) -> None:
        self._try_elevate()
        self._try_pin(core_id % max(1, available_cpus()))
        for release, job in table_jobs(self.state, core_id):
            self._sleep_until(release)
            if self._stopping.is_set():
                return
            now = self.now_ns()
            task, seq = job.task, job.seq
            self.emit("release_theoretical", task=task.name, seq=seq, t=release)
            self._release(job, worker=core_id)
            if now > release:
                self.emit("overrun", task=task.name, seq=seq, worker=core_id,
                          late=now - release)
            self._run_job(core_id, job)


# -------------------------------------------------------------- helpers


def run_realtime(
    state: MiddlewareState, duration_ns: int
) -> tuple[list[TraceEvent], RunReport]:
    """Start the thread backend, run for duration_ns of wall time, stop,
    and return (trace, report).  The state is left STOPPED."""
    if state.config.clock_source is not ClockSource.MONOTONIC_OS:
        raise ConfigurationError("run_realtime requires clock_source=MONOTONIC_OS")
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
) -> dict[str, Stat]:
    """Release-to-start latency of empty periodic jobs on this host.

    Spawns `threads` probe tasks, one per worker, each released every
    `period_ns` for `loops` activations, and returns the distribution of
    job_start - release_theoretical per probe plus a pooled "all" entry.
    The shape mirrors the cyclictest-style min/avg/max summary."""
    if loops <= 0:
        raise ConfigurationError("loops must be positive")
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")
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
    trace, _ = run_realtime(state, period_ns * loops)
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
    return stats
