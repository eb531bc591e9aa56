"""Virtual-time backend: a deterministic discrete-event simulator.

The simulator executes the same scheduling core as the thread backend but
under a synthetic clock, so a run is a pure function of (task set, job
model, horizon, seed) and equal inputs produce byte-identical trace CSVs.

Costs are explicit knobs.  With all knobs at zero the engine realises the
ideal schedule: releases land exactly on their theoretical instants and
critical sections take no time.  With non-zero knobs the FIFO queue lock
serialises the scheduler and the workers, making the classic blocking
bounds observable in the trace.

There is one scheduler: a tick that falls inside a pass is coalesced
into one pass that starts when the running one ends.  Past the horizon a
tick is armed, and a coalesced pass runs, only while a pass could still
release something, so a pass longer than the tick cannot keep a drained
run alive.  A run cut at the event cap ends as a truncated report with a
warning, even inside a pass.

A worker wakes through one event: it pulls if idle, and checks the queue
head for preemption if it runs a job outside a lock section.  A job is
its worker's current job from the end of its context switch (instant
with no preempted jobs), and work that came to outrank it meanwhile
preempts it then.

Under the off-line mapping each core replays its table entries instead of
pulling from a ready queue, and there is no scheduler tick.  A table entry
otherwise runs through the same execution path as an on-line job: the same
segments, channel parking and waking, completion accounting and event loop.

Every event and every virtual-lock grant is a named engine method, queued
with its arguments and called as fn(*args).  Events run in (time, ordering
class, push order) order: at one instant, control events (scripted
activations, mode switches), then the scheduler tick, then job completions,
then everything else in scheduling order.  This is part of the
deterministic contract.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import ConfigurationError, UsageError
from .graph import GraphInfo
from .model import (
    ClockSource,
    LockingStrategy,
    MappingScheme,
    MiddlewareState,
    PolicyConfig,
    TaskDescriptor,
    TaskKind,
    VersionDescriptor,
    WaitingStrategy,
    check_int,
)
from .offline import table_jobs
from .online import Job, SchedulerCore, hyperperiod
from .tracing import RunLog, RunReport, TraceEvent
from .versions import AcceleratorRegistry, SelectionContext

# event ordering classes at equal timestamps
_P_CONTROL = 0
_P_TICK = 1
_P_DONE = 2
_P_MISC = 3

_EVENT_CAP = 2_000_000


def policy_label(config: PolicyConfig) -> str:
    if config.mapping_scheme is MappingScheme.OFFLINE:
        return "O-TABLE"
    prefix = "G" if config.mapping_scheme is MappingScheme.GLOBAL else "P"
    return f"{prefix}-{config.priority_assignment.value}"


@dataclass
class SimJobModel:
    """Synthetic execution model for simulated runs.

    exec_time maps a task name to either a duration, a distribution, or a
    per-version-name mapping of those.  A duration is a number >= 0 (ns); a
    distribution is exactly {"dist": "uniform", "low": a, "high": b} with
    a <= b or {"dist": "normal", "mean": m, "std": s} with s >= 0, of finite
    numbers, sampled from the run's seeded generator and clamped to >= 0.
    Unmapped versions execute for exactly their wcet_estimate.  Anything
    else, unknown names included, fails when the run starts.

    The four cost knobs, each an int >= 0 (ns), inject scheduling overheads.
    body_ops overrides the derived channel behaviour of a task (pops at
    start, pushes at the end) with explicit (offset_ns >= 0, "push"|"pop",
    channel_name, count >= 1) tuples splitting the execution body; its keys
    and channel names must be declared.  Each activations entry (t, name)
    names a sporadic or aperiodic task at t >= 0, and each mode_schedule
    instant is >= 0.  Like exec_time, these fail when the run starts.
    """

    exec_time: dict = field(default_factory=dict)
    get_task_cost: int = 0
    sched_scan_cost_per_task: int = 0
    sort_cost_per_element: int = 0
    context_switch_cost: int = 0
    activations: list[tuple[int, str]] = field(default_factory=list)
    mode_schedule: list[tuple[int, frozenset]] = field(default_factory=list)
    execution_mode: frozenset = frozenset()
    permission_mask: frozenset = frozenset()
    battery_level: float | None = None
    alpha: float = 0.5
    pip_enabled: bool = True
    body_ops: dict = field(default_factory=dict)


def parse_horizon(text: str | int | None, base: int | None) -> int | None:
    """Horizon argument: ns int, '<n>hp' hyperperiods, or ms/us/s sugar."""
    if isinstance(text, bool) or not isinstance(text, (int, str, type(None))):
        raise ConfigurationError(f"horizon must be an int of ns or a string, not {text!r}")
    if text is None or isinstance(text, int):
        return text
    t = text.strip().lower()
    try:
        if t.endswith("hp"):
            if base is None:
                raise ConfigurationError(
                    "hyperperiod horizon requested but no recurring periods exist"
                )
            return int(t[:-2] or "1") * base
        if t.endswith("ms"):
            return int(round(float(t[:-2]) * 1_000_000))
        if t.endswith("us"):
            return int(round(float(t[:-2]) * 1_000))
        if t.endswith("ns"):
            return int(t[:-2])
        if t.endswith("s"):
            return int(round(float(t[:-1]) * 1_000_000_000))
        return int(t)
    except (ValueError, OverflowError):
        raise ConfigurationError(f"cannot parse horizon {text!r}") from None


# --------------------------------------------------------------- helpers


def _finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
               for x in xs)


def _duration_draw(spec, rng: random.Random, where: str) -> Callable[[], int]:
    """One exec_time spec (see SimJobModel) as a function drawing a job's
    duration from `rng`; raises a ConfigurationError naming `where`.

    Bounds are compared as given, then truncated to ints.  A uniform draw
    is compiled once into the rejection loop `rng.randint` runs on
    `getrandbits`: width.bit_length() bits, redrawn while at or above the
    width.  So it returns exactly `randint`'s values, from the same bits,
    without re-checking its arguments on every draw.
    """
    match spec:
        case int() | float() if _finite(spec) and spec >= 0:
            fixed = int(spec)
            return lambda: fixed
        case {"dist": "uniform", "low": a, "high": b} if (
                len(spec) == 3 and _finite(a, b) and a <= b):
            low = int(a)
            width = int(b) - low + 1
            bits, k = rng.getrandbits, width.bit_length()

            def uniform() -> int:
                r = bits(k)
                while r >= width:
                    r = bits(k)
                return max(0, low + r)

            return uniform
        case {"dist": "normal", "mean": a, "std": b} if (
                len(spec) == 3 and _finite(a, b) and b >= 0):
            mean, std = float(a), float(b)
            return lambda: max(0, round(rng.gauss(mean, std)))
    raise ConfigurationError(
        f"exec_time of {where} is not a duration >= 0 or a uniform (low <= high)"
        f" or normal (std >= 0) distribution: {spec!r}"
    )


class _FifoLock:
    """Virtual FIFO lock: grants strictly in request order, each grant
    called as grant(now, waited, *args)."""

    __slots__ = ("held", "waiters")

    def __init__(self) -> None:
        self.held = False
        self.waiters: deque[tuple[int, Callable, tuple]] = deque()  # (t_req, grant, args)

    def request(self, now: int, grant: Callable, *args) -> None:
        if self.held:
            self.waiters.append((now, grant, args))
        else:
            self.held = True
            grant(now, 0, *args)

    def release(self, now: int) -> None:
        assert self.held
        if self.waiters:
            t_req, grant, args = self.waiters.popleft()
            grant(now, now - t_req, *args)
        else:
            self.held = False


class _WorkerSim:
    __slots__ = ("current", "stack", "idle", "pending", "in_cs")

    def __init__(self) -> None:
        self.current: Job | None = None  # from the end of its context switch
        self.stack: list[Job] = []
        self.idle = True
        self.pending = False  # a wake-up event or a preemption check is queued
        self.in_cs = False


class _JobExec:
    """Execution progress of one dispatched job."""

    __slots__ = ("program", "step", "left", "seg_end", "gen", "duration")

    def __init__(self, program: tuple | list, duration: int):
        self.program = program
        self.step = 0
        self.left = 0  # tokens or ns remaining within the current step
        self.seg_end = 0
        self.gen = 0
        self.duration = duration


# ---------------------------------------------------------------- engine


class _Engine:
    def __init__(
        self,
        state: MiddlewareState,
        graph: GraphInfo,
        model: SimJobModel,
        horizon: int,
        seed: int,
        restrict: Callable[[TaskDescriptor], list[VersionDescriptor]] | None,
        keep_trace: bool | str,
    ):
        self.state = state
        self.model = model
        self.horizon = horizon
        self.rng = random.Random(seed)
        self.now = 0
        self._heap: list = []
        self._seq = itertools.count(1)  # push order
        self.log = RunLog(keep_trace, [a.name for a in state.accelerators],
                          [t.name for t in state.tasks])

        self.registry = AcceleratorRegistry(
            len(state.accelerators), pip_enabled=model.pip_enabled
        )
        self.ctx = SelectionContext(
            now=0,
            execution_mode=frozenset(model.execution_mode),
            permission_mask=frozenset(model.permission_mask),
            battery_probe=(
                (lambda: model.battery_level) if model.battery_level is not None else None
            ),
            alpha=model.alpha,
        )
        self.core = SchedulerCore(state, graph, self.registry, self.ctx, restrict=restrict)
        # (worker, job) parked per channel: ordered sets, woken FIFO
        self.chan_prod_waiters = {c: OrderedDict() for c in self.core.channels}
        self.chan_cons_waiters = {c: OrderedDict() for c in self.core.channels}
        self.workers = [_WorkerSim() for _ in range(state.config.worker_count)]
        self.queue_of = [self.core.queue_of_worker(w) for w in range(len(self.workers))]
        self.preemptive = state.config.preemptive
        self.locks = [_FifoLock() for _ in self.core.queues]
        self.execs: dict[Job, _JobExec] = {}
        self._sched_active = False
        self._sched_missed = False
        self._tick_armed = False
        self.offline = state.config.mapping_scheme is MappingScheme.OFFLINE
        for name in ("activations", "mode_schedule"):
            if self.offline and getattr(model, name):
                raise ConfigurationError(
                    f"SimJobModel.{name} is not supported under the off-line"
                    " mapping: cores replay their table only"
                )
        tasks = {t.name: t for t in state.tasks}
        for t, name in model.activations:
            task = tasks.get(name)
            if t < 0 or task is None or task.kind not in (TaskKind.SPORADIC, TaskKind.APERIODIC):
                raise ConfigurationError(f"SimJobModel.activations entry {(t, name)!r} must"
                                         " name a sporadic or aperiodic task at an instant >= 0")
        self.activations = [(t, tasks[name].task_id) for t, name in sorted(model.activations)]
        for knob in ("get_task_cost", "sched_scan_cost_per_task", "sort_cost_per_element",
                     "context_switch_cost"):
            check_int(f"SimJobModel.{knob}", getattr(model, knob), 0, error=ConfigurationError)
        self.scan_cost = model.sched_scan_cost_per_task * len(state.tasks)
        for t, mask in model.mode_schedule:
            if t < 0:
                raise ConfigurationError(f"SimJobModel.mode_schedule entry {(t, mask)!r}"
                                         " must be at an instant >= 0")
        self.plans = self._plans(graph)
        # per-core table replay under the off-line mapping
        self.tables: dict[int, Iterator[tuple[int, Job]]] = (
            {c: table_jobs(state, c) for c in sorted(state.table.cores)}
            if self.offline else {}
        )

    # ------------------------------------------------------- plumbing

    def push_event(self, t: int, prio: int, fn: Callable, *args) -> None:
        heapq.heappush(self._heap, (t, prio, next(self._seq), fn, args))

    def _plans(self, graph: GraphInfo) -> list[list[tuple]]:
        """plans[task_id][version_id] = (draw, head, body_ops as sorted (offset, step), tail)."""
        exec_time, body_ops = self.model.exec_time, self.model.body_ops
        task_names = {t.name for t in self.state.tasks}
        if unknown := exec_time.keys() - task_names:
            raise ConfigurationError(f"exec_time names unknown tasks: {sorted(map(str, unknown))}")
        if unknown := body_ops.keys() - task_names:
            raise ConfigurationError(f"body_ops names unknown tasks: {sorted(map(str, unknown))}")
        channel_ids = {c.name: c.channel_id for c in self.state.channels}
        if unknown := {op[2] for ops in body_ops.values() for op in ops} - channel_ids.keys():
            raise ConfigurationError(f"body_ops name unknown channels: {', '.join(sorted(unknown))}")
        plans = []
        for task in self.state.tasks:
            spec, where = exec_time.get(task.name), f"task {task.name!r}"
            head = tuple(("pop", cid, n) for cid, n in graph.inputs.get(task.task_id, ()))
            tail = tuple(("push", cid, n) for cid, n in graph.outputs.get(task.task_id, ()))
            if (ops := body_ops.get(task.name)) is not None:
                head = tail = ()
                for off, op, ch, count in ops:
                    if off < 0 or op not in ("push", "pop") or count < 1:
                        raise ConfigurationError(f"body_ops of {where}: {(off, op, ch, count)!r} is"
                                                 " not (offset >= 0, push|pop, channel, count >= 1)")
                ops = [(off, (op, channel_ids[ch], count))
                       for off, op, ch, count in sorted(ops, key=lambda o: o[0])]
            names = [v.name for v in task.versions]
            per_version = isinstance(spec, dict) and "dist" not in spec
            if per_version and (not spec or spec.keys() - set(names)):
                raise ConfigurationError(f"exec_time of {where} must map one or more of"
                                         f" its versions {names}, got {sorted(map(str, spec))}")
            plan = []
            for v in task.versions:
                vspec = spec.get(v.name) if per_version else spec
                at = f"{where} version {v.name!r}" if per_version else where
                vspec = v.wcet_estimate if vspec is None else vspec
                plan.append((_duration_draw(vspec, self.rng, at), head, ops, tail))
            plans.append(plan)
        return plans

    def run(self) -> None:
        if self.offline:
            for core in self.tables:
                self._next_entry(core)
        else:
            for t, mask in sorted(self.model.mode_schedule):
                self.push_event(t, _P_CONTROL, self._set_mode, frozenset(mask))
            for t, task_id in self.activations:
                self.push_event(t, _P_CONTROL, self._activate, task_id)
            self._arm_tick(0)

        heap, pop, ctx = self._heap, heapq.heappop, self.ctx
        done = 0  # events run; events_done once the loop ends
        try:
            while heap:
                t, _, _, fn, args = pop(heap)
                assert t >= self.now, "virtual time must be monotonic"
                self.now = ctx.now = t
                fn(*args)
                done += 1
                if done > _EVENT_CAP:
                    self.log.report.truncated = True
                    self.log.report.warnings.append("event cap reached; run truncated")
                    break
        finally:
            self.events_done = done

    def _set_mode(self, mask: frozenset) -> None:
        self.ctx.execution_mode = mask

    def _activate(self, task_id: int) -> None:
        self.core.activate(task_id, self.now)
        self._maybe_rearm_tick()

    # ------------------------------------------------------ scheduler

    def _arm_tick(self, t: int) -> None:
        if not self._tick_armed:
            self._tick_armed = True
            self.push_event(t, _P_TICK, self._tick_fn)

    def _maybe_rearm_tick(self) -> None:
        """Past the horizon nothing new arrives on the clock, but the tick
        keeps firing while a pass could still release something: pipelined
        graph iterations need ticks to move tokens toward the sinks."""
        if self._tick_armed or self.offline:
            return
        grid = (self.now // self.core.tick + 1) * self.core.tick
        if self._may_release(grid):
            self._arm_tick(grid)

    def _may_release(self, t: int) -> bool:
        """Whether a pass at `t` could still release something."""
        return t < self.horizon or self.core.work_pending(self.horizon)

    def _tick_fn(self) -> None:
        self._tick_armed = False
        self._maybe_rearm_tick()
        if self._sched_active:
            self._sched_missed = True  # single scheduler: coalesce
            return
        self._sched_pass()

    def _sched_pass(self) -> None:
        """Global mapping scans under lock 0 and logs tick_end before
        releasing it; partitioned mapping scans before taking any lock."""
        self._sched_active = True
        if self.core.global_mapping:
            self.locks[0].request(self.now, self._tick_cs)
        else:
            self.log.tick_begin(self.now)
            jobs = self.core.release(self.now, self.horizon)
            self.log.theoretical(jobs)
            batches = self.core.group(jobs)
            self.push_event(self.now + self.scan_cost, _P_MISC, self._part_insert,
                            batches, 0)

    def _sched_done(self) -> None:
        self._sched_active = False
        if self._sched_missed:
            self._sched_missed = False
            if self._may_release(self.now):
                self._sched_pass()

    def _tick_cs(self, now: int, waited: int) -> None:
        self.log.tick_wait(now, waited, 0)
        self.log.tick_begin(now)
        jobs = self.core.release(now, self.horizon)
        self.log.theoretical(jobs)
        cost = self.scan_cost + self.model.sort_cost_per_element * self.core.fill(0, jobs)
        self.push_event(now + cost, _P_MISC, self._tick_cs_end, jobs)

    def _tick_cs_end(self, jobs: list[Job]) -> None:
        self.log.release(self.now, jobs)
        self.log.tick_end(self.now)
        self.locks[0].release(self.now)
        self._after_insert(0)
        self._sched_done()

    def _part_insert(self, batches: list[tuple[int, list[Job]]], idx: int) -> None:
        """Lock each touched per-core queue in turn, then close the tick."""
        if idx == len(batches):
            self.log.tick_end(self.now)
            self._sched_done()
            return
        self.locks[batches[idx][0]].request(self.now, self._part_cs, batches, idx)

    def _part_cs(self, now: int, waited: int, batches: list, idx: int) -> None:
        qi, jobs = batches[idx]
        self.log.tick_wait(now, waited, qi)
        cost = self.model.sort_cost_per_element * self.core.fill(qi, jobs)
        self.push_event(now + cost, _P_MISC, self._part_cs_end, batches, idx)

    def _part_cs_end(self, batches: list, idx: int) -> None:
        qi, jobs = batches[idx]
        self.log.release(self.now, jobs)
        self.locks[qi].release(self.now)
        self._after_insert(qi)
        self._part_insert(batches, idx + 1)

    def _after_insert(self, qi: int) -> None:
        """Wake idle workers and preemption targets of queue qi."""
        idle = [
            w
            for w in self.core.workers_of_queue(qi)
            if self.workers[w].idle and not self.workers[w].pending
        ]
        if idle:
            # one pull per dispatchable job, counted no further than needed
            dispatchable = 0
            for job in self.core.queues[qi].items:
                if not job.blocked_on:
                    dispatchable += 1
                    if dispatchable == len(idle):
                        break
            for w in idle[:dispatchable]:
                self._queue_wake(w, qi)
        if self.preemptive:
            running = [
                w.current if (w.current is not None and not w.in_cs) else None
                for w in self.workers
            ]
            for w in self.core.preemption_targets(qi, running):
                self._queue_wake(w, qi)

    # -------------------------------------------------------- workers

    def _queue_wake(self, w: int, qi: int) -> None:
        ws = self.workers[w]
        if not ws.pending:
            ws.pending = True
            self.push_event(self.now, _P_MISC, self._wake, w, qi)

    def _wake(self, w: int, qi: int) -> None:
        """Pull, or check for preemption; a pull, switch or check in flight
        sees the head itself, so one check at a time waits on the lock."""
        ws = self.workers[w]
        ws.pending = False
        if ws.idle:
            self._request_pull(w, qi)
        elif ws.current is not None and not ws.in_cs:
            ws.pending = True  # until _notify_cs
            self._pause_exec(ws.current)
            self.locks[qi].request(self.now, self._notify_cs, w, qi, ws.current)

    def _request_pull(self, w: int, qi: int) -> None:
        self.workers[w].idle = False
        lock = self.locks[qi]
        if lock.held:
            lock.request(self.now, self._pull_cs, w, qi)
        else:  # _FifoLock.request's grant, without its call
            lock.held = True
            self._pull_cs(self.now, 0, w, qi)

    def _pull_cs(self, now: int, waited: int, w: int, qi: int) -> None:
        ws = self.workers[w]
        ws.in_cs = True
        stack_top = ws.stack[-1] if ws.stack else None
        action, job, acquired = self.core.pick_next(qi, stack_top)
        cost = self.model.get_task_cost
        self.log.get_task_wait(now, w, waited, cost, action)
        if acquired:
            self.log.accels(now, "accel_acquire", job, w, acquired)
        self.push_event(now + cost, _P_MISC, self._pull_cs_end, w, qi, action, job)

    def _pull_cs_end(self, w: int, qi: int, action: str, job: Job | None) -> None:
        ws = self.workers[w]
        ws.in_cs = False
        self.locks[qi].release(self.now)
        if action == "idle":
            ws.idle = True
            return
        # a worker with preempted jobs switches context, to a fresh job or back
        switch = self.model.context_switch_cost if ws.stack else 0
        if action == "resume":
            assert job is ws.stack[-1]
            ws.stack.pop()
        self.push_event(self.now + switch, _P_MISC, self._switch_end, w, qi, job, switch)

    def _switch_end(self, w: int, qi: int, job: Job, switch: int) -> None:
        """The job becomes the worker's current one: it starts, or resumes
        its execution.  Work that came to outrank it meanwhile preempts it."""
        self.workers[w].current = job
        if job in self.execs:
            self.log.resume(self.now, job, w, switch)
        else:
            self.log.start(self.now, job, w)
            self.execs[job] = self._build_exec(job)
        if self.preemptive and self.core.preemptor(qi, job) is not None:
            self._queue_wake(w, qi)
        self._advance(w, job)

    def _notify_cs(self, now: int, waited: int, w: int, qi: int, job: Job) -> None:
        ws = self.workers[w]
        ws.pending = False
        ws.in_cs = True
        cost = self.model.get_task_cost
        head = self.core.preemptor(qi, job)
        if head is not None:
            switch = self.model.context_switch_cost
            self.log.get_task_wait(now, w, waited, cost, "preempt")
            self.log.preempt(now, job, w, head.task.name, switch)
            ws.stack.append(job)
            ws.current = None
            action, nxt, acquired = self.core.pick_next(qi, job)
            if acquired:
                self.log.accels(now, "accel_acquire", nxt, w, acquired)
            self.push_event(now + cost, _P_MISC, self._pull_cs_end, w, qi, action, nxt)
        else:
            self.log.get_task_wait(now, w, waited, cost, "none")
            self.push_event(now + cost, _P_MISC, self._notify_stale, w, qi, job)

    def _notify_stale(self, w: int, qi: int, job: Job) -> None:
        self.workers[w].in_cs = False
        self.locks[qi].release(self.now)
        self._advance(w, job)  # continue where the handler interrupted

    # ------------------------------------------------- job execution

    def _build_exec(self, job: Job) -> _JobExec:
        draw, head, ops, tail = self.plans[job.task.task_id][job.version.version_id]
        duration = draw()
        if ops is None:
            return _JobExec(head + (("exec", duration),) + tail, duration)
        program: list[tuple] = []
        cursor = 0
        for off, step in ops:
            off = min(off, duration)
            if off > cursor:
                program.append(("exec", off - cursor))
                cursor = off
            program.append(step)
        if cursor < duration:
            program.append(("exec", duration - cursor))
        return _JobExec(program, duration)

    def _advance(self, w: int, job: Job) -> None:
        """Run the job's program until it blocks, sleeps, or completes."""
        ws = self.workers[w]
        assert ws.current is job
        ex = self.execs[job]
        job.channel_blocked = False
        while ex.step < len(ex.program):
            step = ex.program[ex.step]
            if step[0] == "exec":
                dur = ex.left or step[1]
                ex.left = dur
                ex.seg_end = self.now + dur
                ex.gen += 1
                self.push_event(ex.seg_end, _P_DONE, self._seg_done, w, job, ex.gen)
                return
            kind, cid, count = step
            if ex.left == 0:
                ex.left = count
            ch = self.core.channels[cid]
            while ex.left > 0:
                if kind == "pop":
                    if not ch.can_pop():
                        self._park_on_channel(self.chan_cons_waiters[cid], w, job)
                        return
                    ch.pop()
                    self._wake_channel(self.chan_prod_waiters[cid])
                else:
                    if not ch.can_push():
                        self._park_on_channel(self.chan_prod_waiters[cid], w, job)
                        return
                    self.core.push(cid)
                    self._wake_channel(self.chan_cons_waiters[cid])
                    self._maybe_rearm_tick()  # tokens may trigger a firing
                ex.left -= 1
            ex.step += 1
            ex.left = 0
        self._complete(w, job)

    @staticmethod
    def _park_on_channel(waiters: OrderedDict, w: int, job: Job) -> None:
        # a stale notification can re-run the blocked step; the entry keeps
        # its first place
        job.channel_blocked = True
        waiters[(w, job)] = None

    def _seg_done(self, w: int, job: Job, gen: int) -> None:
        ex = self.execs.get(job)
        if ex is None or ex.gen != gen:
            return  # segment was paused or rescheduled
        if self.workers[w].current is not job:
            return
        ex.left = 0
        ex.step += 1
        self._advance(w, job)

    def _pause_exec(self, job: Job) -> None:
        """Freeze the current execution segment (handler or preemption)."""
        ex = self.execs[job]
        if ex.step < len(ex.program) and ex.program[ex.step][0] == "exec" and not job.channel_blocked:
            ex.left = max(0, ex.seg_end - self.now)
            ex.gen += 1  # cancels the pending segment event

    def _wake_channel(self, waiters: OrderedDict) -> None:
        if not waiters:
            return
        (w, job), _ = waiters.popitem(last=False)
        job.channel_blocked = False
        ws = self.workers[w]
        if ws.current is job and not ws.in_cs:
            self.push_event(self.now, _P_MISC, self._continue, w, job)
        elif ws.idle:
            # job sits preempted on the stack of an idle worker
            self._queue_wake(w, self.queue_of[w])

    def _continue(self, w: int, job: Job) -> None:
        ws = self.workers[w]
        if ws.current is job and not ws.in_cs and not job.channel_blocked:
            self._advance(w, job)

    def _complete(self, w: int, job: Job) -> None:
        ws = self.workers[w]
        ex = self.execs.pop(job)
        self.log.complete(self.now, job, w, ex.duration)
        ws.current = None
        if job.version.accelerators:
            freed, notify = self.core.free_accelerators(job)
            self.log.accels(self.now, "accel_release", job, w, freed)
            # unparked waiters may be pullable by idle workers of any queue
            for qi in notify:
                self._after_insert(qi)
        if self.offline:
            self._next_entry(w)
        else:
            self._request_pull(w, self.queue_of[w])

    # --------------------------------------------------- table replay

    def _next_entry(self, core: int) -> None:
        """Schedule the core's next table entry: at its release instant, or
        as soon as the core frees up if the previous entry ran late."""
        release, job = next(self.tables[core], (None, None))
        if job is not None and release < self.horizon:
            self.push_event(max(release, self.now), _P_MISC, self._run_entry, core, job)

    def _run_entry(self, core: int, job: Job) -> None:
        self.log.table_release(self.now, job, core)
        self._switch_end(core, core, job, 0)


# ----------------------------------------------------------- entry point


def run_simulation(
    state: MiddlewareState,
    model: SimJobModel | None = None,
    *,
    horizon: int | str | None = None,
    seed: int = 0,
    restrict: Callable[[TaskDescriptor], list[VersionDescriptor]] | None = None,
    keep_trace: bool | str = True,
) -> tuple[list[TraceEvent] | list[str], RunReport]:
    """Simulate one run under virtual time.

    Pure: the input state is only read.  The default horizon is one
    hyperperiod (the table period under OFFLINE); runs whose hyperperiod
    overflows must pass an explicit horizon.  Releases stop at the horizon
    and everything already released drains to completion.  `restrict`,
    when given, is called once per task when the run starts, and the
    versions it returns are the ones that task's jobs select from.  The
    trace is kept as CSV lines (no header), formatted as events are
    recorded: with `keep_trace="csv"` they are returned, with True the
    TraceEvents read back from them, and with False none is kept and the
    one returned is empty.  The report is the same.  A report warns when
    `waiting_strategy` or `locking_strategy` is not its default: they act
    only on the thread backend, so the simulated run ignores them.
    """
    model = model or SimJobModel()
    graph = state.check()

    offline = state.config.mapping_scheme is MappingScheme.OFFLINE
    try:
        base = state.table.table_period if offline else hyperperiod(state)
    except ConfigurationError:  # say why there is no hyperperiod to count in
        if horizon is None or str(horizon).strip().lower().endswith("hp"):
            raise
        base = None
    horizon_ns = base if horizon is None else parse_horizon(horizon, base)
    if horizon_ns <= 0:
        raise ConfigurationError("horizon must be > 0")

    engine = _Engine(state, graph, model, horizon_ns, seed, restrict, keep_trace)
    engine.run()
    cfg = state.config
    trace, report = engine.log.close({
        "backend": ClockSource.VIRTUAL.value,
        "policy": policy_label(cfg),
        "seed": seed,
        "horizon_ns": horizon_ns,
        "tick_ns": engine.core.tick,
        "workers": cfg.worker_count,
    })
    if (cfg.waiting_strategy is not WaitingStrategy.SLEEP
            or cfg.locking_strategy is not LockingStrategy.OS_LOCK):
        report.warnings.append(
            "waiting_strategy and locking_strategy act only on the thread"
            " backend; the simulator does not model them"
        )
    return trace, report
