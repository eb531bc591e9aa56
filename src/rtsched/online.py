"""On-line scheduling core shared by the simulator and the thread backend.

The scheduler wakes every tick (the GCD of all recurring periods) and runs
one pass in three `SchedulerCore` steps: `release` the due jobs, then the
graph nodes a channel push has fed since the last pass; `group` them by
ready queue (one shared queue under GLOBAL, one per core under
PARTITIONED); `fill` each queue with its batch in key order.  The backend
then notifies workers.  Workers pull under a FIFO lock; a preempted job
goes on the preempting worker's stack and never migrates.

This module holds the data structures and the decision logic, and the
per-run state both backends share: `SchedulerCore` owns the run's channel
states, its tick and each task's version pool and ranking.  Locks, clocks,
cost knobs, log order and tracing belong to the backends.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from operator import attrgetter
from typing import Callable

from .errors import ConfigurationError, SelectionError
from .graph import ChannelState, GraphInfo, reserve_inputs, short_input
from .model import (
    MappingScheme,
    MiddlewareState,
    TaskDescriptor,
    TaskKind,
    VersionDescriptor,
)
from .priority import PriorityKey, key_rule
from .versions import (
    AcceleratorRegistry,
    SelectionContext,
    eligible_versions,
    first_free,
    select_version,
    version_ranking,
)


_UNBLOCKED: frozenset[int] = frozenset()


class Job:
    """One release of one task.

    `key` is the job's own priority key and `boost` the best key it has
    inherited, if any.  `rank`, its effective key, is a field that
    `inherit` and `clear_inheritance` keep equal to the boost where it
    outranks the key, else the key; dispatch compares it directly, and
    `effective_key()` returns it.
    """

    __slots__ = (
        "task",
        "seq",
        "version",
        "abs_release",
        "abs_deadline",
        "key",
        "boost",
        "rank",
        "blocked_on",
        "channel_blocked",
    )

    def __init__(
        self,
        task: TaskDescriptor,
        seq: int,
        version: VersionDescriptor,
        abs_release: int,
        abs_deadline: int,
        key: PriorityKey,
    ):
        self.task = task
        self.seq = seq
        self.version = version
        self.abs_release = abs_release
        self.abs_deadline = abs_deadline
        self.key = key
        self.boost: PriorityKey | None = None
        self.rank = key
        # accelerators the job is parked on; `_resolve_accelerators` gives a
        # parking job a set of its own, so the unparked share one empty one
        self.blocked_on: set[int] | frozenset[int] = _UNBLOCKED
        self.channel_blocked = False

    @property
    def job_id(self) -> tuple[int, int]:
        return (self.task.task_id, self.seq)

    def effective_key(self) -> PriorityKey:
        return self.rank

    def inherit(self, key: PriorityKey) -> None:
        if self.boost is None or key < self.boost:
            self.boost = key
            if key < self.rank:
                self.rank = key

    def clear_inheritance(self) -> None:
        self.boost = None
        self.rank = self.key

    def __repr__(self) -> str:  # debug aid
        return f"<job {self.task.name}#{self.seq}>"


_KEY = attrgetter("key")


class ReadyQueue:
    """Job list kept in `Job.key` order, highest priority first.

    `insert` places each job by binary insertion, so a pass costs
    O(k log n) for k new jobs whatever the backlog.  The order holds
    because a queued job's key never changes: inheritance boosts only
    accelerator holders, and acquisition is all-or-nothing, so a holder
    has started and left the queue.  Keys end in (task_id, seq) and are
    unique, so the order equals a stable sort.  `sort` has nothing left to
    do; only `SchedulerCore.fill` calls it, and it stays as perfbench's
    `online.sort` span target until ROADMAP item 3.  Admission to the
    guarding lock is FIFO; the lock lives in the backend.
    """

    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: list[Job] = []

    def insert(self, job: Job) -> None:
        assert job.boost is None, f"{job} queued with an inherited priority"
        insort(self.items, job, key=_KEY)

    def sort(self) -> None:
        """No-op: `insert` already keeps the items in key order."""

    def first_dispatchable(self) -> Job | None:
        for job in self.items:
            if not job.blocked_on:
                return job
        return None

    def __len__(self) -> int:
        return len(self.items)


# ------------------------------------------------------- tick arithmetic


def scheduler_tick_period(state: MiddlewareState) -> int:
    """The run's tick: the table period under OFFLINE, else the GCD of
    every recurring period and nonzero release offset.

    Dividing the offsets too puts every theoretical release instant on the
    scheduler's wake grid, so periodic jobs are never enqueued late just
    because their first release fell between ticks.
    """
    if state.config.mapping_scheme is MappingScheme.OFFLINE:
        return state.table.table_period
    instants = [t.period for t in state.tasks if t.period is not None]
    if not instants:
        raise ConfigurationError(
            "no recurring tasks: an on-line mapping requires a scheduler tick"
        )
    instants += [t.release_offset for t in state.tasks
                 if t.period is not None and t.release_offset]
    return math.gcd(*instants)


HYPERPERIOD_CAP = 2**62


def hyperperiod(state: MiddlewareState) -> int:
    periods = [t.period for t in state.tasks if t.period is not None]
    if not periods:
        raise ConfigurationError("no recurring tasks: hyperperiod undefined")
    h = math.lcm(*periods)
    if h > HYPERPERIOD_CAP:
        raise ConfigurationError(
            "hyperperiod overflows the supported range; pass an explicit horizon"
        )
    return h


def release_timing(
    state: MiddlewareState, graph: GraphInfo, task: TaskDescriptor
) -> tuple[TaskDescriptor | None, int | None, int | None]:
    """(graph root or None, period, relative deadline) of `task`'s jobs.

    A periodless graph node takes its root's period and, without a
    deadline of its own, its root's deadline; every other task keeps its
    own fields.
    """
    period, rel_deadline = task.period, task.relative_deadline
    if period is not None or task.task_id not in graph.node_root:
        return None, period, rel_deadline
    root = state.task(graph.node_root[task.task_id])
    if rel_deadline is None:
        rel_deadline = root.relative_deadline
    return root, root.period, rel_deadline


# ------------------------------------------------------------- the core


class SchedulerCore:
    """The scheduler pass, release bookkeeping and dispatch for one run.

    A pass is three steps, `release`, `group` and `fill`, and both backends
    run it only through them, each keeping its locks, clock, cost knobs and
    log order.  The horizon is the one difference left between their calls
    (ROADMAP item 5).

    Owns the run's shared scheduling state: `channels` (a ChannelState per
    declared channel, which both backends pop, and push only through `push`
    so each push marks its consumer for graph_activations), `tick` (see
    scheduler_tick_period) and each task's version pool, but no clock.
    `graph` is the analysis the run was validated with
    (MiddlewareState.check).  `select_ctx` is read at each decision so
    backends can vary execution mode or battery level over time.

    Each task's release plan is made once, when the core is built: its key
    rule (priority.key_rule, with a graph node's root's timing), its
    version pool (`restrict` is called once per task, here) and, under
    PRESELECTED and ENERGY_TIME, its version ranking
    (versions.version_ranking, with `select_ctx.alpha` as it is then).  A
    job of a ranked task takes the first ranked version whose accelerators
    are free, so `make_job` calls select_version only under ENERGY, MODE,
    BITMASK and USER.
    """

    def __init__(
        self,
        state: MiddlewareState,
        graph: GraphInfo,
        registry: AcceleratorRegistry,
        select_ctx: SelectionContext,
        *,
        restrict: Callable[[TaskDescriptor], list[VersionDescriptor]] | None = None,
    ):
        self.state = state
        self.registry = registry
        self.select_ctx = select_ctx
        self.channels = {c.channel_id: ChannelState(c) for c in state.channels}
        self.tick = scheduler_tick_period(state)
        cfg = state.config
        self.global_mapping = cfg.mapping_scheme is MappingScheme.GLOBAL
        self.queue_count = 1 if self.global_mapping else cfg.worker_count
        self.queues = [ReadyQueue() for _ in range(self.queue_count)]
        self.graph = graph
        self._seq = {t.task_id: 0 for t in state.tasks}
        # next arrival of each clock-released task, in task order; sporadic
        # tasks release only through activate()
        self._next_periodic = {
            t.task_id: t.release_offset
            for t in state.tasks
            if t.period is not None and t.kind is not TaskKind.SPORADIC
        }
        self._pending: list[tuple[int, int]] = []  # (release, task_id)
        self._last_sporadic: dict[int, int] = {}
        # (node, firings per iteration) of each periodic graph root's nodes
        # that inherit its deadline
        self._inheritors: dict[int, list[tuple[int, int]]] = {}
        for t, rate in self.graph.node_rate.items():
            r = self.graph.node_root.get(t)
            if r is not None and state.tasks[t].relative_deadline is None:
                self._inheritors.setdefault(r, []).append((t, rate or 1))
        # root -> its release instants of iterations some inheritor has yet
        # to fire; the first kept is iteration _seq[root] - len(kept)
        self._root_releases: dict[int, deque] = {r: deque() for r in self._inheritors}
        # token-driven nodes with their indexed inputs, in topological order;
        # roots release on the clock even if they have inputs
        self._token_nodes = [
            (state.tasks[t], self.graph.inputs[t])
            for t, rate in self.graph.node_rate.items()
            if rate > 0 and state.tasks[t].period is None
        ]
        # channel -> index in _token_nodes of its consumer; the indices pushes
        # fed since the last pass (all at first: channels may hold initial tokens)
        self._consumer = {cid: i for i, (_, inputs) in enumerate(self._token_nodes)
                          for cid, _ in inputs}
        self._dirty = set(range(len(self._token_nodes)))
        self._plans = self._release_plans(restrict)

    # ------------------------------------------------------ releases

    def activate(self, task_id: int, now: int) -> int:
        """Sporadic/aperiodic activation request at instant `now`; returns
        its release instant.

        A sporadic release is deferred to max(now, last release + period)
        to honour the minimum inter-arrival spacing.  Aperiodic tasks
        release now.
        """
        task = self.state.task(task_id)
        release = now
        if task.kind is TaskKind.SPORADIC:
            prev = self._last_sporadic.get(task_id)
            if prev is not None:
                release = max(now, prev + task.period)
            self._last_sporadic[task_id] = release
        self._pending.append((release, task_id))
        return release

    def due_releases(self, now: int, horizon: int | None = None) -> list[Job]:
        """Jobs whose theoretical arrival is <= now, in task order.

        Arrivals at or past `horizon` are left alone so a stopping run
        releases nothing beyond its end.
        """
        jobs: list[Job] = []
        for tid, release in self._next_periodic.items():
            task = self.state.tasks[tid]
            while release <= now and (horizon is None or release < horizon):
                jobs.append(self.make_job(task, release))
                release += task.period
            self._next_periodic[tid] = release
        if self._pending:
            due = [p for p in self._pending if p[0] <= now]
            if due:
                self._pending = [p for p in self._pending if p[0] > now]
                for release, tid in sorted(due):
                    if horizon is not None and release >= horizon:
                        continue
                    jobs.append(self.make_job(self.state.task(tid), release))
        return jobs

    def push(self, channel_id: int, value=None) -> None:
        """Push one token into a channel and mark its token-driven consumer
        for the next pass.  Both backends push only through here."""
        self.channels[channel_id].push(value)
        i = self._consumer.get(channel_id)
        if i is not None:
            self._dirty.add(i)

    def graph_activations(self, now: int) -> list[Job]:
        """Data-driven releases: each marked node, in topological order,
        fired while its inputs hold a firing's tokens; then no node is marked.

        Only a push raises a channel's unclaimed count (pop and reserve
        never do), so a node no push has marked since the last pass cannot
        have become fireable."""
        jobs: list[Job] = []
        for i in sorted(self._dirty):
            task, inputs = self._token_nodes[i]
            while short_input(self.channels, inputs) is None:
                reserve_inputs(self.channels, inputs)
                jobs.append(self.make_job(task, now))
        self._dirty.clear()
        return jobs

    def work_pending(self, horizon: int) -> bool:
        """True while a future scheduler pass could still release something:
        a periodic arrival or queued activation before the horizon, or a marked
        graph node whose inputs hold a firing's tokens.  Drives drain-phase ticks."""
        if any(nxt < horizon for nxt in self._next_periodic.values()):
            return True
        if any(release < horizon for release, _ in self._pending):
            return True
        for i in list(self._dirty):
            if short_input(self.channels, self._token_nodes[i][1]) is None:
                return True
            self._dirty.discard(i)  # short: only a push, which marks it again, can feed it
        return False

    def make_job(self, task: TaskDescriptor, abs_release: int) -> Job:
        """The next job of `task`, released at `abs_release`, by the task's
        release plan: its key rule, and its version by the plan's ranking."""
        tid = task.task_id
        seq = self._seq[tid]
        self._seq[tid] = seq + 1
        key_of, version, root, pool, ranking = self._plans[tid]
        if root is None:
            abs_deadline = abs_release + (task.relative_deadline or 0)
            kept = self._root_releases.get(tid)
            if kept is not None:  # drop instants of iterations every inheritor fired
                kept.append(abs_release)
                oldest = min(self._seq[t] // rate for t, rate in self._inheritors[tid])
                while kept and self._seq[tid] - len(kept) < oldest:
                    kept.popleft()
        elif task.relative_deadline is not None:
            # node-local deadline, measured from its own activation
            abs_deadline = abs_release + task.relative_deadline
        else:
            # inherit the end-to-end deadline of the root release that spawned
            # iteration seq // rate of the graph: a node fires in order
            kept = self._root_releases[root.task_id]
            iteration = seq // (self.graph.node_rate.get(tid, 1) or 1)
            i = iteration - (self._seq[root.task_id] - len(kept))
            base = kept[i] if i < len(kept) else abs_release
            abs_deadline = base + root.relative_deadline
        if version is None:
            if ranking:
                version = first_free(ranking, self.registry) or ranking[0]
            else:
                version = select_version(
                    self.state.config.version_selection,
                    task,
                    self.select_ctx,
                    self.registry,
                    pool=pool,
                )
        key = key_of(seq, abs_release, abs_deadline)
        return Job(task, seq, version, abs_release, abs_deadline, key)

    def _release_plans(self, restrict) -> list[tuple]:
        """plans[task_id] = (key rule, static version or None, graph root
        or None, version pool or None, version ranking or None).

        The root and the timing the rule ranks by are release_timing's.
        The pool is `restrict(task)`, None without a restriction.  The
        ranking is the pool's (versions.version_ranking), None under a
        method whose choice can vary.  The version is fixed when the
        ranking's head is the only choice: it holds no accelerator, so is
        always free, or it is the ranking's only version.
        """
        cfg = self.state.config
        method = cfg.version_selection
        plans = []
        for task in self.state.tasks:
            root, period, rel_deadline = release_timing(self.state, self.graph, task)
            version = None
            pool = None if restrict is None else restrict(task)
            ranking = version_ranking(method, task, self.select_ctx, pool)
            if ranking and (len(ranking) == 1 or not ranking[0].accelerators):
                version = ranking[0]
            rule = key_rule(cfg.priority_assignment, task,
                            period=period, relative_deadline=rel_deadline)
            plans.append((rule, version, root, pool, ranking))
        return plans

    # ------------------------------------------------------- routing

    def queue_for(self, job: Job) -> int:
        if self.global_mapping:
            return 0
        assert job.task.virt_core_id is not None
        return job.task.virt_core_id

    def queue_of_worker(self, w: int) -> int:
        return 0 if self.global_mapping else w

    def workers_of_queue(self, qi: int) -> range:
        if self.global_mapping:
            return range(self.state.config.worker_count)
        return range(qi, qi + 1)

    def preemptor(self, qi: int, job: Job) -> Job | None:
        """The head of queue qi when it outranks `job`, else None."""
        head = self.queues[qi].first_dispatchable()
        if head is not None and head.rank < job.rank:
            return head
        return None

    def preemption_targets(self, qi: int, running: list[Job | None]) -> list[int]:
        """Workers of queue qi whose running job ranks below the queue head."""
        return [w for w in self.workers_of_queue(qi)
                if running[w] is not None and self.preemptor(qi, running[w]) is not None]

    # --------------------------------------------------------- the pass

    def release(self, now: int, horizon: int | None = None) -> list[Job]:
        """Release step: the jobs a pass at `now` releases, in release order:
        due_releases(now, horizon), then graph_activations(now)."""
        jobs = self.due_releases(now, horizon)
        jobs.extend(self.graph_activations(now))
        return jobs

    def group(self, jobs: list[Job]) -> list[tuple[int, list[Job]]]:
        """Group step: `jobs` as (queue, batch) pairs in queue order, each
        batch in release order; under GLOBAL always (0, jobs), even empty."""
        if self.global_mapping:
            return [(0, jobs)]
        by_queue: dict[int, list[Job]] = {}
        for job in jobs:
            by_queue.setdefault(self.queue_for(job), []).append(job)
        return sorted(by_queue.items())

    def fill(self, qi: int, jobs: list[Job]) -> int:
        """Fill step: insert one batch into queue qi in key order.  Returns
        the queue's length, which the simulator's sort cost scales with."""
        queue = self.queues[qi]
        for job in jobs:
            queue.insert(job)
        queue.sort()
        return len(queue)

    # ------------------------------------------------------- dispatch

    def pick_next(
        self, qi: int, stack_top: Job | None
    ) -> tuple[str, Job | None, list[int]]:
        """Decide what a worker of queue qi runs next.  Runs under the
        queue lock.

        Returns (action, job, acquired) with action one of "resume",
        "start", "idle".  `acquired` lists accelerator ids taken for a
        started job.  Queue items whose version waits on a busy accelerator
        are skipped after boosting the holder (inheritance), and stay
        parked until the resource frees up.
        """
        queue = self.queues[qi]
        stack_ok = stack_top is not None and not stack_top.channel_blocked
        for i, job in enumerate(queue.items):
            if job.blocked_on:
                continue
            if stack_ok and stack_top.rank < job.rank:
                return ("resume", stack_top, [])
            resolved = self._resolve_accelerators(job)
            if resolved is None:
                continue  # parked on a busy accelerator
            version, acquired = resolved
            job.version = version
            del queue.items[i]
            return ("start", job, acquired)
        if stack_ok:
            return ("resume", stack_top, [])
        return ("idle", None, [])

    def _resolve_accelerators(
        self, job: Job
    ) -> tuple[VersionDescriptor, list[int]] | None:
        """Try to make `job` startable, switching version if that avoids a
        busy accelerator.  None means the job was parked (and the holder
        possibly boosted)."""
        version = job.version
        if not version.accelerators:
            return (version, [])
        busy = self.registry.acquire(job, version.accelerators)
        if not busy:
            return (version, sorted(version.accelerators))
        _, _, _, pool, ranking = self._plans[job.task.task_id]
        if ranking:
            alt = first_free(ranking, self.registry)
        else:
            alt = None
            free_pool = eligible_versions(pool or job.task.versions, self.registry)
            if free_pool:
                try:
                    alt = select_version(
                        self.state.config.version_selection,
                        job.task,
                        self.select_ctx,
                        self.registry,
                        pool=free_pool,
                    )
                except SelectionError:
                    pass
        if alt is not None:
            taken = self.registry.acquire(job, alt.accelerators)
            assert not taken
            return (alt, sorted(alt.accelerators))
        self.registry.apply_inheritance(job, busy)
        job.blocked_on = set(busy)
        return None

    def free_accelerators(self, job: Job) -> tuple[list[int], list[int]]:
        """After `job` completes: free its accelerators and unpark their
        waiters.  Returns the freed ids and the sorted ids of the queues
        whose jobs became dispatchable."""
        if not job.version.accelerators:
            return [], []  # held none, so was never boosted either
        freed = self.registry.release_all(job)
        woken = self.unblock_accel_waiters(freed) if freed else []
        return freed, sorted({self.queue_for(j) for j in woken})

    def unblock_accel_waiters(self, accel_ids: list[int]) -> list[Job]:
        """Clear parked markers after an accelerator release.  Returns the
        jobs that became dispatchable."""
        woken: list[Job] = []
        freed = set(accel_ids)
        for queue in self.queues:
            for job in queue.items:
                if job.blocked_on and job.blocked_on & freed:
                    job.blocked_on -= freed
                    if not job.blocked_on:
                        woken.append(job)
        return woken
