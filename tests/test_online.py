"""Scheduler core: tick arithmetic, releases, routing, dispatch."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtsched import (
    BitmaskSelect,
    ConfigurationError,
    EnergySelect,
    EnergyTimeSelect,
    MappingScheme,
    ModeSelect,
    PolicyConfig,
    PriorityAssignment,
    TaskKind,
    UserSelect,
    ValidationError,
    VersionSelection,
    channel_connect,
    channel_decl,
    init,
    ms,
    us,
)
import rtsched.online
import rtsched.simulator as sim
# Internal names that rtsched does not export: imported from their modules.
from rtsched.graph import analyze_graph
from rtsched.online import Job, ReadyQueue, SchedulerCore, hyperperiod, scheduler_tick_period
from rtsched.priority import PriorityKey, assign_priority
from rtsched.versions import (
    AcceleratorRegistry,
    SelectionContext,
    eligible_versions,
    select_version,
)

from .oracles import (
    ReadyQueueOracle,
    arrival_oracle,
    energy_time_choice_oracle,
    gcd_oracle,
    lcm_oracle,
    priority_key_oracle,
)


def _periodic_state(periods, offsets=None, config=None, wcet=us(10)):
    state = init(config or PolicyConfig())
    offsets = offsets or [0] * len(periods)
    for i, (p, off) in enumerate(zip(periods, offsets)):
        tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=p,
                              release_offset=off)
        state.version_decl(tid, wcet_estimate=wcet)
    return state

def _core(state, restrict=None):
    return SchedulerCore(
        state,
        analyze_graph(state),
        AcceleratorRegistry(len(state.accelerators)),
        SelectionContext(),
        restrict=restrict,
    )


class TestTickPeriod:
    def test_gcd_of_periods(self):
        state = _periodic_state([ms(500), ms(1000)])
        assert scheduler_tick_period(state) == ms(500)

    def test_offsets_join_the_gcd(self):
        # a 2 ms first release must land on the wake grid
        state = _periodic_state([ms(100), ms(400)], offsets=[ms(2), 0])
        assert scheduler_tick_period(state) == ms(2)

    def test_zero_offset_ignored(self):
        state = _periodic_state([ms(6), ms(10)], offsets=[0, 0])
        assert scheduler_tick_period(state) == ms(2)

    def test_no_recurring_tasks_rejected(self):
        state = init(PolicyConfig())
        tid = state.task_decl("a", TaskKind.APERIODIC)
        state.version_decl(tid, wcet_estimate=us(10))
        with pytest.raises(ConfigurationError, match="scheduler tick"):
            scheduler_tick_period(state)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=6))
    def test_matches_oracle(self, periods):
        state = _periodic_state(periods)
        assert scheduler_tick_period(state) == gcd_oracle(periods) == math.gcd(*periods)


class TestHyperperiod:
    def test_lcm_of_periods(self):
        state = _periodic_state([ms(4), ms(10)])
        assert hyperperiod(state) == ms(20)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5))
    def test_matches_oracle(self, periods):
        state = _periodic_state(periods)
        assert hyperperiod(state) == lcm_oracle(periods)

    def test_overflow_capped(self):
        # pairwise-coprime large periods push the lcm past any usable horizon
        primes = [2_000_000_011, 2_000_000_033, 2_000_000_089, 2_000_000_099]
        state = _periodic_state(primes)
        with pytest.raises(ConfigurationError, match="horizon"):
            hyperperiod(state)

    def test_no_recurring_tasks_rejected(self):
        state = init(PolicyConfig())
        tid = state.task_decl("a", TaskKind.APERIODIC)
        state.version_decl(tid, wcet_estimate=us(10))
        with pytest.raises(ConfigurationError, match="hyperperiod"):
            hyperperiod(state)


class TestActivation:
    def _sporadic_core(self):
        state = init(PolicyConfig())
        tid = state.task_decl("s", TaskKind.SPORADIC, period=ms(5))
        state.version_decl(tid, wcet_estimate=us(10))
        aid = state.task_decl("a", TaskKind.APERIODIC)
        state.version_decl(aid, wcet_estimate=us(10))
        return _core(state), tid, aid

    def test_sporadic_min_separation(self):
        core, tid, _ = self._sporadic_core()
        assert core.activate(tid, now=0) == 0
        assert core.activate(tid, now=ms(2)) == ms(5)  # pushed out
        assert core.activate(tid, now=ms(11)) == ms(11)  # gap already open

    def test_aperiodic_immediate(self):
        core, _, aid = self._sporadic_core()
        assert core.activate(aid, now=ms(3)) == ms(3)
        assert core.activate(aid, now=ms(3)) == ms(3)  # no separation rule


class TestDueReleases:
    def test_periodic_schedule(self):
        state = _periodic_state([ms(10)])
        core = _core(state)
        jobs = core.due_releases(now=0)
        assert [(j.task.name, j.seq, j.abs_release) for j in jobs] == [("t0", 0, 0)]
        assert core.due_releases(now=ms(5)) == []
        jobs = core.due_releases(now=ms(20))  # catches up on both due instants
        assert [j.abs_release for j in jobs] == [ms(10), ms(20)]

    def test_offset_delays_first_release(self):
        state = _periodic_state([ms(10)], offsets=[ms(4)])
        core = _core(state)
        assert core.due_releases(now=0) == []
        jobs = core.due_releases(now=ms(4))
        assert [j.abs_release for j in jobs] == [ms(4)]

    def test_horizon_blocks_release_at_end(self):
        state = _periodic_state([ms(10)])
        core = _core(state)
        jobs = core.due_releases(now=ms(10), horizon=ms(10))
        assert [j.abs_release for j in jobs] == [0]

    def test_pending_activations_sorted_by_instant(self):
        core, tid, aid = TestActivation()._sporadic_core()
        core.activate(aid, now=ms(2))
        core.activate(tid, now=ms(1))
        jobs = core.due_releases(now=ms(2))
        assert [(j.task.name, j.abs_release) for j in jobs] == [
            ("s", ms(1)),
            ("a", ms(2)),
        ]

    def test_sporadic_not_released_by_clock(self):
        state = init(PolicyConfig())
        tid = state.task_decl("s", TaskKind.SPORADIC, period=ms(5))
        state.version_decl(tid, wcet_estimate=us(10))
        p = state.task_decl("p", TaskKind.PERIODIC, period=ms(5))
        state.version_decl(p, wcet_estimate=us(10))
        core = _core(state)
        jobs = core.due_releases(now=ms(20))
        assert all(j.task.name == "p" for j in jobs)


class TestMakeJob:
    def test_implicit_deadline_is_period(self):
        state = _periodic_state([ms(10)])
        core = _core(state)
        job = core.make_job(state.tasks[0], ms(30))
        assert job.abs_deadline == ms(40)

    def test_explicit_deadline(self):
        state = init(PolicyConfig())
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10),
                              relative_deadline=ms(7))
        state.version_decl(tid, wcet_estimate=us(10))
        core = _core(state)
        assert core.make_job(state.task(tid), ms(10)).abs_deadline == ms(17)

    def test_seq_increments_per_task(self):
        state = _periodic_state([ms(10), ms(10)])
        core = _core(state)
        a = core.make_job(state.tasks[0], 0)
        b = core.make_job(state.tasks[0], ms(10))
        c = core.make_job(state.tasks[1], 0)
        assert (a.seq, b.seq, c.seq) == (0, 1, 0)
        assert a.job_id == (0, 0) and c.job_id == (1, 0)

    def _graph_state(self, node_deadline=None):
        state = init(PolicyConfig())
        root = state.task_decl("root", TaskKind.PERIODIC, period=ms(10),
                               relative_deadline=ms(8))
        state.version_decl(root, wcet_estimate=us(10))
        node = state.task_decl("node", TaskKind.GRAPH_NODE,
                               relative_deadline=node_deadline)
        state.version_decl(node, wcet_estimate=us(10))
        ch = channel_decl(state, "c", element_size=8, capacity=4)
        channel_connect(state, ch, root, node)
        return state, root, node

    def test_graph_node_inherits_root_deadline_per_iteration(self):
        state, root, node = self._graph_state()
        core = _core(state)
        # two root releases establish the iteration series
        core.make_job(state.task(root), 0)
        core.make_job(state.task(root), ms(10))
        j0 = core.make_job(state.task(node), ms(3))   # iteration 0, fired late
        j1 = core.make_job(state.task(node), ms(12))
        assert j0.abs_deadline == ms(8)    # 0 + root deadline
        assert j1.abs_deadline == ms(18)   # 10 ms release + root deadline

    @pytest.mark.parametrize("seed", range(6))
    def test_node_deadlines_match_an_unbounded_series(self, seed):
        """Root releases and node firings interleave at random, nodes
        lagging their root or running ahead of it; every node deadline
        equals the one read from the root's full release series, while the
        core keeps only the instants of iterations still to fire."""
        state = init(PolicyConfig())
        root = state.task_decl("root", TaskKind.PERIODIC, period=ms(10),
                               relative_deadline=ms(8))
        state.version_decl(root, wcet_estimate=us(10))
        nodes = {}
        for name, deadline in (("w", None), ("z", None), ("own", ms(1))):
            nodes[name] = state.task_decl(name, TaskKind.GRAPH_NODE,
                                          relative_deadline=deadline)
            state.version_decl(nodes[name], wcet_estimate=us(10))
        for src, dst, push, need in (
            (root, nodes["w"], 2, 1), (nodes["w"], nodes["z"], 1, 2), (root, nodes["own"], 1, 1),
        ):
            channel_connect(state, channel_decl(state, f"{src}{dst}", element_size=8, capacity=4),
                            src, dst, required_tokens=need, push_count=push)
        rate = {"w": 2, "z": 1, "own": 1}
        core = _core(state)
        rng = random.Random(seed)
        releases, fired, now = [], dict.fromkeys(rate, 0), 0
        for _ in range(300):
            now += rng.randrange(ms(3))
            pick = rng.choice(["root", "w", "w", "z", "own"])
            if pick == "root":
                job = core.make_job(state.task(root), ms(10) * len(releases))
                releases.append(job.abs_release)
                continue
            job = core.make_job(state.task(nodes[pick]), now)
            k = fired[pick] // rate[pick]
            fired[pick] += 1
            if pick == "own":
                assert job.abs_deadline == now + ms(1)
            else:
                assert job.abs_deadline == (releases[k] if k < len(releases) else now) + ms(8)
            kept = core._root_releases[root]
            oldest = min(fired["w"] // 2, fired["z"])
            assert list(kept) == releases[len(releases) - len(kept):]
            assert len(releases) - len(kept) <= oldest

    def test_root_releases_stay_bounded_over_a_long_run(self):
        """A 1->8->1 fan-out keeps as many root instants at 20 s as at 2 s."""
        state = init(PolicyConfig(worker_count=2))
        src = state.task_decl("src", TaskKind.PERIODIC, period=ms(100))
        w = state.task_decl("w", TaskKind.GRAPH_NODE)
        snk = state.task_decl("snk", TaskKind.GRAPH_NODE)
        for t in (src, w, snk):
            state.version_decl(t, wcet_estimate=ms(1))
        for a, b, push, need in ((src, w, 8, 1), (w, snk, 1, 8)):
            channel_connect(state, channel_decl(state, f"{a}{b}", element_size=8, capacity=8),
                            a, b, required_tokens=need, push_count=push)

        def kept(horizon):
            engine = sim._Engine(state, state.check(), sim.SimJobModel(), horizon, 7, None, False)
            engine.run()
            assert engine.log.report.completed == horizon // ms(100) * 10
            assert not engine.log._accounts.marks
            return len(engine.core._root_releases[src])

        assert kept(ms(20_000)) == kept(ms(2_000))

    def test_graph_node_local_deadline_wins(self):
        state, root, node = self._graph_state(node_deadline=ms(2))
        core = _core(state)
        core.make_job(state.task(root), 0)
        j = core.make_job(state.task(node), ms(3))
        assert j.abs_deadline == ms(5)  # measured from its own activation

    def test_graph_node_borrows_root_period_for_rm(self):
        state, root, node = self._graph_state()
        state.config = PolicyConfig(priority_assignment=PriorityAssignment.RM)
        core = _core(state)
        jr = core.make_job(state.task(root), 0)
        jn = core.make_job(state.task(node), 0)
        assert jn.key.primary == jr.key.primary == ms(10)


class TestReleasePlan:
    """make_job's planned key and version equal the per-job rule: what
    assign_priority and select_version return for the arguments the core
    passed them before it planned, and the oracle's key."""

    CASES = ("preselected", "restricted", "accelerator-first")

    def _state(self, assignment, case):
        state = init(PolicyConfig(priority_assignment=assignment))
        gpu = state.hwaccel_decl("gpu")
        tasks = {
            "p": state.task_decl("p", TaskKind.PERIODIC, period=ms(10),
                                 relative_deadline=ms(7), user_priority=3),
            "s": state.task_decl("s", TaskKind.SPORADIC, period=ms(5), user_priority=1),
            "a": state.task_decl("a", TaskKind.APERIODIC, relative_deadline=ms(4),
                                 user_priority=2),
            "r": state.task_decl("r", TaskKind.PERIODIC, period=ms(20), user_priority=4),
            "n": state.task_decl("n", TaskKind.GRAPH_NODE, user_priority=5),
            "d": state.task_decl("d", TaskKind.GRAPH_NODE, relative_deadline=ms(3),
                                 user_priority=6),
        }
        for tid in tasks.values():
            v0 = state.version_decl(tid, wcet_estimate=us(10), name="v0")
            state.version_decl(tid, wcet_estimate=us(20), name="v1")
            if case == "accelerator-first":
                state.hwaccel_use(tid, v0, gpu)
        channel_connect(state, channel_decl(state, "rn", element_size=8, capacity=4),
                        tasks["r"], tasks["n"])
        channel_connect(state, channel_decl(state, "nd", element_size=8, capacity=4),
                        tasks["n"], tasks["d"])
        restrict = (lambda task: task.versions[1:]) if case == "restricted" else None
        return state, tasks, restrict

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("assignment", list(PriorityAssignment), ids=lambda a: a.value)
    def test_key_and_version_match_the_per_job_rule(self, assignment, case, monkeypatch):
        state, tasks, restrict = self._state(assignment, case)
        core = _core(state, restrict)
        root = state.task(tasks["r"])
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].name)
            return select_version(*args, **kwargs)

        monkeypatch.setattr(rtsched.online, "select_version", counted)
        made = 0
        for k in range(4):
            # every other round the accelerator is taken, so selection moves
            core.registry.holders[0] = object() if k % 2 else None
            for name, offset in (("r", 0), ("p", 0), ("s", 1), ("a", 2), ("n", 3), ("d", 4)):
                task = state.task(tasks[name])
                job = core.make_job(task, ms(20) * k + ms(offset))
                made += 1
                node = task.kind is TaskKind.GRAPH_NODE
                period = root.period if node else task.period
                deadline = task.relative_deadline
                if node and deadline is None:
                    deadline = root.relative_deadline
                want_key = assign_priority(
                    assignment, task, seq=job.seq, abs_release=job.abs_release,
                    abs_deadline=job.abs_deadline, period=period, relative_deadline=deadline,
                )
                assert job.key == want_key
                assert tuple(job.key) == priority_key_oracle(
                    assignment.value, task.kind.name, task.task_id, task.name, job.seq,
                    job.abs_release, job.abs_deadline, period, deadline, task.user_priority,
                )
                want_version = select_version(
                    state.config.version_selection, task, core.select_ctx, core.registry,
                    pool=None if restrict is None else restrict(task),
                )
                assert job.version is want_version
                assert job.blocked_on == set()
        # PRESELECTED is ranked once per run, so no job calls select_version
        assert made == 24 and calls == []

    PROPS = {
        VersionSelection.PRESELECTED: None,
        VersionSelection.ENERGY_TIME: EnergyTimeSelect(energy_cost=1.0, exec_time=ms(1)),
        VersionSelection.ENERGY: EnergySelect(energy_budget=1.0),
        VersionSelection.MODE: ModeSelect(frozenset({"m"})),
        VersionSelection.BITMASK: BitmaskSelect(frozenset({"p"})),
        VersionSelection.USER: UserSelect(lambda task, versions, ctx: versions[0].version_id),
    }

    @pytest.mark.parametrize("method", list(VersionSelection), ids=lambda m: m.value)
    def test_select_version_runs_per_job_only_where_the_choice_varies(self, method, monkeypatch):
        props = self.PROPS[method]
        state = init(PolicyConfig(version_selection=method))
        gpu = state.hwaccel_decl("gpu")
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.hwaccel_use(tid, state.version_decl(tid, wcet_estimate=ms(1), select=props), gpu)
        state.version_decl(tid, wcet_estimate=ms(2), select=props)
        core = SchedulerCore(state, analyze_graph(state), AcceleratorRegistry(1),
                             SelectionContext(execution_mode=frozenset({"m"}),
                                              permission_mask=frozenset({"p"}),
                                              battery_probe=lambda: 1.0))
        calls = []
        monkeypatch.setattr(rtsched.online, "select_version",
                            lambda *args, **kwargs: calls.append(args) or select_version(
                                *args, **kwargs))
        for k in range(3):
            core.registry.holders[0] = object() if k % 2 else None
            assert core.make_job(state.task(tid), ms(10) * k).version.version_id == k % 2
        ranked = method in (VersionSelection.PRESELECTED, VersionSelection.ENERGY_TIME)
        assert len(calls) == (0 if ranked else 3)

    @pytest.mark.parametrize("assignment", ["RM", "DM", "USER"])
    def test_unrankable_task_raises_at_its_first_job(self, assignment):
        state = init(PolicyConfig(priority_assignment=PriorityAssignment(assignment)))
        p = state.task_decl("p", TaskKind.PERIODIC, period=ms(10), user_priority=1)
        state.version_decl(p, wcet_estimate=us(10))
        dead = state.task_decl("x", TaskKind.GRAPH_NODE)  # no channel, period or deadline
        state.version_decl(dead, wcet_estimate=us(10))
        core = _core(state)  # not at run start: a node that never fires needs no rank
        core.make_job(state.task(p), 0)
        task = state.task(dead)
        with pytest.raises(ValueError) as want:
            priority_key_oracle(assignment, task.kind.name, dead, "x", 0, 0, 0,
                                None, None, None)
        with pytest.raises(ValidationError) as direct:
            assign_priority(PriorityAssignment(assignment), task, seq=0, abs_release=0,
                            abs_deadline=0)
        with pytest.raises(ValidationError) as planned:
            core.make_job(task, 0)
        assert str(planned.value) == str(direct.value) == str(want.value)


_HOLDER = object()  # an accelerator holder that is not one of the test's jobs
_BUSY = st.lists(st.booleans(), min_size=3, max_size=3)  # per accelerator


class TestRankedSelection:
    """Under PRESELECTED and ENERGY_TIME the core plans each task's version
    ranking once; the version a job gets from it, at release and at the
    dispatch retry, is the one select_version and the per-job rule before
    rankings (oracles.energy_time_choice_oracle) pick on the same registry."""

    @settings(max_examples=80, deadline=None)
    @given(
        method=st.sampled_from([VersionSelection.PRESELECTED, VersionSelection.ENERGY_TIME]),
        props=st.lists(
            st.tuples(st.integers(0, 4),
                      st.sampled_from([0, 1, 2.5]) | st.floats(0, 50),
                      st.sets(st.integers(0, 2), max_size=2)),
            min_size=1, max_size=4),
        alpha=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1),
        restricted=st.none() | st.permutations(range(4)).flatmap(
            lambda order: st.integers(1, 4).map(lambda k: order[:k])),
        rounds=st.lists(st.tuples(_BUSY, _BUSY), min_size=1, max_size=4),
    )
    def test_planned_choice_equals_select_version(self, method, props, alpha,
                                                  restricted, rounds):
        state = init(PolicyConfig(version_selection=method))
        for a in range(3):
            state.hwaccel_decl(f"acc{a}")
        tid = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        for exec_time, energy_cost, accels in props:
            select = None
            if method is VersionSelection.ENERGY_TIME:
                select = EnergyTimeSelect(energy_cost=energy_cost, exec_time=exec_time)
            vid = state.version_decl(tid, wcet_estimate=us(10), select=select)
            for a in sorted(accels):
                state.hwaccel_use(tid, vid, a)
        task = state.task(tid)
        ids = None if restricted is None else [i for i in restricted if i < len(props)]
        pool = None if not ids else [task.versions[i] for i in ids]
        ctx = SelectionContext(alpha=alpha)
        registry = AcceleratorRegistry(3, pip_enabled=False)
        core = SchedulerCore(state, analyze_graph(state), registry, ctx,
                             restrict=None if pool is None else (lambda t: pool))
        pool_ids = ids or list(range(len(props)))

        def oracle():
            free = [all(registry.holders[a] is None for a in v.accelerators)
                    for v in task.versions]
            if method is VersionSelection.PRESELECTED:
                return next((i for i in pool_ids if free[i]), pool_ids[0])
            return energy_time_choice_oracle(
                [(t, e) for t, e, _ in props], pool_ids, free, alpha)

        for k, (at_release, at_dispatch) in enumerate(rounds):
            registry.holders[:] = [_HOLDER if b else None for b in at_release]
            job = core.make_job(task, ms(10) * k)
            assert job.version is select_version(method, task, ctx, registry, pool=pool)
            assert job.version.version_id == oracle()

            registry.holders[:] = [_HOLDER if b else None for b in at_dispatch]
            busy = {a for a in job.version.accelerators if at_dispatch[a]}
            free_pool = eligible_versions(pool or task.versions, registry)
            want = job.version
            if busy:  # the dispatch retry: a free version of the pool, else wait
                want = free_pool and select_version(method, task, ctx, registry,
                                                    pool=free_pool)
                assert not want or want.version_id == oracle()
            core.queues[0].insert(job)
            action, got, acquired = core.pick_next(0, None)
            if want:
                assert (action, got, acquired) == ("start", job, sorted(want.accelerators))
                assert job.version is want
                registry.release_all(job)
            else:
                assert action == "idle" and job.blocked_on == busy
                core.queues[0].items.remove(job)


class TestReadyQueue:
    def _job(self, core, state, name_idx, release):
        return core.make_job(state.tasks[name_idx], release)

    def test_first_dispatchable_skips_parked(self):
        state = _periodic_state([ms(10), ms(20)])
        core = _core(state)
        q = ReadyQueue()
        a = self._job(core, state, 0, 0)
        b = self._job(core, state, 1, 0)
        q.insert(b)
        q.insert(a)
        q.sort()
        assert q.first_dispatchable() is a  # RM-by-default: shorter period
        a.blocked_on = {0}
        assert q.first_dispatchable() is b
        b.blocked_on = {1}
        assert q.first_dispatchable() is None

    def test_insert_rejects_a_boosted_job(self):
        state = _periodic_state([ms(10), ms(20)])
        core = _core(state)
        lo, hi = self._job(core, state, 1, 0), self._job(core, state, 0, 0)
        lo.inherit(hi.key)
        with pytest.raises(AssertionError, match="inherited priority"):
            ReadyQueue().insert(lo)


_KEYS = st.builds(PriorityKey, st.integers(0, 1), st.integers(0, 5), st.integers(0, 3),
                  st.integers(0, 3))


class TestRank:
    """`Job.rank` is the effective key: the boost where it outranks the
    job's own key, else the key."""

    @settings(max_examples=100, deadline=None)
    @given(key=_KEYS, ops=st.lists(st.one_of(_KEYS, st.none()), max_size=12))
    def test_follows_inherit_and_clear(self, key, ops):
        task = _periodic_state([ms(10)]).tasks[0]
        job = Job(task, 0, task.versions[0], 0, ms(10), key)
        assert job.rank == key
        for boost in ops:  # a key is inherited, None clears
            if boost is None:
                job.clear_inheritance()
            else:
                job.inherit(boost)
            expected = job.boost if job.boost is not None and job.boost < key else key
            assert job.rank == expected == job.effective_key()


def _accel_state():
    """EDF; tasks needing no accelerator, a0, a1 and both; one version each."""
    state = init(PolicyConfig())
    accels = [state.hwaccel_decl("a0"), state.hwaccel_decl("a1")]
    for i, use in enumerate(([], [0], [1], [0, 1])):
        tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=ms(10 + 5 * i))
        vid = state.version_decl(tid, wcet_estimate=ms(1))
        for a in use:
            state.hwaccel_use(tid, vid, accels[a])
    return state


_QUEUE_OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 3), st.integers(0, 30)),
    st.tuples(st.just("sort")),
    st.tuples(st.just("pick")),
    st.tuples(st.just("complete"), st.integers(0, 63)),
)


class TestReadyQueueOracle:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_QUEUE_OPS, min_size=20, max_size=60))
    def test_matches_full_sort_oracle(self, ops):
        state = _accel_state()
        core = _core(state)
        queue = core.queues[0]
        oracle = ReadyQueueOracle(
            key=Job.effective_key, accels=lambda j: j.version.accelerators
        )
        running: list[Job] = []
        for op in ops:
            if op[0] == "insert":
                job = core.make_job(state.tasks[op[1]], ms(op[2]))
                queue.insert(job)
                oracle.insert(job)
            elif op[0] == "sort":
                queue.sort()
            elif op[0] == "pick":
                queue.sort()  # the backends sort in the pass that inserts
                action, job, acquired = core.pick_next(0, None)
                expected = oracle.pick()
                assert job is expected
                assert action == ("idle" if expected is None else "start")
                if job is not None:
                    assert acquired == sorted(job.version.accelerators)
                    running.append(job)
            elif op[0] == "complete" and running:
                job = running.pop(op[1] % len(running))
                freed = core.registry.release_all(job)
                expected_freed, expected_woken = oracle.release(job)
                assert freed == expected_freed
                assert core.unblock_accel_waiters(freed) == expected_woken
            # insert keeps the order, so it holds after every step
            assert queue.items == sorted(oracle.live, key=Job.effective_key)
            for job in oracle.live:
                assert job.blocked_on == oracle.parked.get(job, set())
                assert job.boost is None  # queued keys never move
            assert len(queue) == len(oracle.live)

    def test_boosted_holder_leaves_queued_sibling_in_place(self):
        # lo#0 holds a1 and inherits hi's key while lo#1, the next job of
        # the same task, sits queued: lo#1's key and position stay put
        state = _accel_state()
        core = _core(state)
        queue = core.queues[0]
        lo_task, hi_task, free_task = state.tasks[3], state.tasks[2], state.tasks[0]
        holder = core.make_job(lo_task, 0)
        queue.insert(holder)
        assert core.pick_next(0, None)[1] is holder
        sibling = core.make_job(lo_task, ms(20))
        hi = core.make_job(hi_task, 0)
        queue.insert(sibling)
        queue.insert(hi)
        queue.sort()
        assert queue.items == [hi, sibling]
        key_before = sibling.key
        assert core.pick_next(0, None) == ("idle", None, [])
        assert holder.effective_key() == hi.key  # inheritance applied
        assert sibling.key == key_before and sibling.boost is None
        other = core.make_job(free_task, 0)
        queue.insert(other)
        queue.sort()
        assert queue.items == [other, hi, sibling]
        assert queue.items == sorted(queue.items, key=Job.effective_key)


class TestRouting:
    def test_global_single_queue_all_workers(self):
        state = _periodic_state(
            [ms(10)], config=PolicyConfig(worker_count=3)
        )
        core = _core(state)
        job = core.make_job(state.tasks[0], 0)
        assert core.queue_count == 1
        assert core.queue_for(job) == 0
        assert list(core.workers_of_queue(0)) == [0, 1, 2]

    def test_partitioned_routes_by_core(self):
        cfg = PolicyConfig(
            mapping_scheme=MappingScheme.PARTITIONED, worker_count=2
        )
        state = init(cfg)
        t0 = state.task_decl("t0", TaskKind.PERIODIC, period=ms(10), virt_core_id=1)
        state.version_decl(t0, wcet_estimate=us(10))
        core = _core(state)
        job = core.make_job(state.task(t0), 0)
        assert core.queue_count == 2
        assert core.queue_for(job) == 1
        assert list(core.workers_of_queue(1)) == [1]


class TestSchedulerPass:
    """The pass's three core steps, release, group and fill, with no engine."""

    def test_release_puts_arrivals_before_activations_and_stops_at_horizon(self):
        state = init(PolicyConfig())
        root = state.task_decl("root", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(root, wcet_estimate=us(10))
        node = state.task_decl("node", TaskKind.GRAPH_NODE)
        state.version_decl(node, wcet_estimate=us(10))
        ch = channel_decl(state, "c", element_size=8, capacity=4)
        channel_connect(state, ch, root, node)
        core = _core(state)
        core.push(ch, "frame")
        jobs = core.release(now=ms(20), horizon=ms(20))
        assert [(j.task.name, j.abs_release) for j in jobs] == [
            ("root", 0), ("root", ms(10)), ("node", ms(20))]
        assert core.release(now=ms(30), horizon=ms(20)) == []

    def test_partitioned_groups_by_core_in_queue_order(self):
        state = init(PolicyConfig(mapping_scheme=MappingScheme.PARTITIONED, worker_count=4))
        for name, core_id in [("a", 2), ("b", 0), ("c", 2), ("d", 1)]:
            tid = state.task_decl(name, TaskKind.PERIODIC, period=ms(10), virt_core_id=core_id)
            state.version_decl(tid, wcet_estimate=us(10))
        core = _core(state)
        jobs = core.release(now=ms(10))
        batches = core.group(jobs)
        assert [(qi, [(j.task.name, j.abs_release) for j in batch]) for qi, batch in batches] == [
            (0, [("b", 0), ("b", ms(10))]),
            (1, [("d", 0), ("d", ms(10))]),
            (2, [("a", 0), ("a", ms(10)), ("c", 0), ("c", ms(10))]),
        ]
        for qi, batch in batches:  # each batch keeps release order
            assert batch == [j for j in jobs if j.task.virt_core_id == qi]

    def test_global_is_one_batch_even_when_empty(self):
        core = _core(_periodic_state([ms(10), ms(20)], config=PolicyConfig(worker_count=3)))
        jobs = core.release(now=0)
        assert core.group(jobs) == [(0, jobs)]
        assert core.group([]) == [(0, [])]

    def test_fill_keeps_key_order_and_returns_queue_length(self):
        state = _periodic_state([ms(30), ms(10), ms(20)])
        core = _core(state)
        assert core.fill(0, core.release(now=0)) == 3
        assert core.fill(0, core.release(now=ms(10))) == 4
        assert core.fill(0, []) == 4
        assert [(j.task.name, j.abs_release) for j in core.queues[0].items] == [
            ("t1", 0), ("t1", ms(10)), ("t2", 0), ("t0", 0)]  # RM by default

    @settings(max_examples=60, deadline=None)
    @given(
        tasks=st.lists(st.tuples(st.integers(0, 6), st.integers(1, 6)), min_size=1, max_size=4),
        horizon=st.integers(1, 60),
        data=st.data(),
    )
    def test_passes_on_the_tick_grid_match_the_arrival_oracle(self, tasks, horizon, data):
        # arrivals and horizon in microseconds; a dropped grid instant is a
        # pass coalesced into a later one, and the last pass lies past the
        # horizon so every arrival before it has a pass
        tasks = [(us(offset), us(period)) for offset, period in tasks]
        horizon = us(horizon)
        core = _core(_periodic_state([p for _, p in tasks], offsets=[o for o, _ in tasks]))
        grid = range(0, horizon + 2 * core.tick, core.tick)
        kept = data.draw(st.lists(st.booleans(), min_size=len(grid) - 1,
                                  max_size=len(grid) - 1))
        passes = [t for t, keep in zip(grid, kept) if keep] + [grid[-1]]
        released: dict[tuple[int, int], int] = {}
        for now in passes:
            for job in core.release(now, horizon):
                key = (job.task.task_id, job.abs_release)
                assert key not in released, f"{key} released twice"
                released[key] = now
        assert released == arrival_oracle(tasks, horizon, passes)


class TestDispatch:
    def _two_task_core(self, worker_count=1):
        state = _periodic_state(
            [ms(10), ms(20)], config=PolicyConfig(worker_count=worker_count)
        )
        core = _core(state)
        hi = core.make_job(state.tasks[0], 0)
        lo = core.make_job(state.tasks[1], 0)
        return core, hi, lo

    def test_start_highest_ready(self):
        core, hi, lo = self._two_task_core()
        core.queues[0].insert(lo)
        core.queues[0].insert(hi)
        core.queues[0].sort()
        action, job, acquired = core.pick_next(0, None)
        assert (action, job, acquired) == ("start", hi, [])
        assert core.queues[0].items == [lo]

    def test_stack_top_beats_lower_queue_head(self):
        core, hi, lo = self._two_task_core()
        core.queues[0].insert(lo)
        action, job, _ = core.pick_next(0, hi)
        assert (action, job) == ("resume", hi)
        assert core.queues[0].items == [lo]  # untouched

    def test_queue_head_beats_lower_stack_top(self):
        core, hi, lo = self._two_task_core()
        core.queues[0].insert(hi)
        action, job, _ = core.pick_next(0, lo)
        assert (action, job) == ("start", hi)

    def test_idle_when_nothing_runnable(self):
        core, hi, lo = self._two_task_core()
        assert core.pick_next(0, None) == ("idle", None, [])

    def test_resume_stack_when_queue_empty(self):
        core, hi, lo = self._two_task_core()
        action, job, _ = core.pick_next(0, lo)
        assert (action, job) == ("resume", lo)

    def test_channel_blocked_stack_not_resumed(self):
        core, hi, lo = self._two_task_core()
        lo.channel_blocked = True
        assert core.pick_next(0, lo) == ("idle", None, [])

    def test_preemption_targets(self):
        core, hi, lo = self._two_task_core(worker_count=2)
        core.queues[0].insert(hi)
        core.queues[0].sort()
        running = [lo, None]
        assert core.preemption_targets(0, running) == [0]
        running = [hi, None]
        core.queues[0].items[0] = lo
        assert core.preemption_targets(0, running) == []

    def _accel_core(self, cpu_fallback=False):
        """Two tasks sharing one accelerator; with `cpu_fallback`, hi has a
        second version without it, declared second so the gpu version is
        the preselected favourite."""
        state = init(PolicyConfig())
        gpu = state.hwaccel_decl("gpu")
        lo = state.task_decl("lo", TaskKind.PERIODIC, period=ms(50))
        v_lo = state.version_decl(lo, wcet_estimate=ms(5))
        state.hwaccel_use(lo, v_lo, gpu)
        hi = state.task_decl("hi", TaskKind.PERIODIC, period=ms(10))
        v_hi = state.version_decl(hi, wcet_estimate=ms(1))
        state.hwaccel_use(hi, v_hi, gpu)
        if cpu_fallback:
            state.version_decl(hi, wcet_estimate=ms(2))
        core = _core(state)
        return state, core, lo, hi

    def test_accel_conflict_parks_and_boosts(self):
        state, core, lo_id, hi_id = self._accel_core()
        lo = core.make_job(state.task(lo_id), 0)
        core.queues[0].insert(lo)
        action, job, acquired = core.pick_next(0, None)
        assert (action, job, acquired) == ("start", lo, [0])

        hi = core.make_job(state.task(hi_id), 0)
        core.queues[0].insert(hi)
        core.queues[0].sort()
        action, job, _ = core.pick_next(0, None)
        assert action == "idle"  # hi is parked on the gpu
        assert hi.blocked_on == {0}
        assert lo.effective_key() == hi.key  # inheritance applied

        freed = core.registry.release_all(lo)
        assert freed == [0]
        assert core.unblock_accel_waiters(freed) == [hi]
        assert hi.blocked_on == set()
        action, job, acquired = core.pick_next(0, None)
        assert (action, job, acquired) == ("start", hi, [0])

    def test_accel_conflict_switches_to_free_version(self):
        state, core, lo_id, hi_id = self._accel_core(cpu_fallback=True)
        lo = core.make_job(state.task(lo_id), 0)
        core.queues[0].insert(lo)
        core.pick_next(0, None)

        hi = core.make_job(state.task(hi_id), 0)
        assert hi.version.version_id == 1  # the cpu version: avoided at creation already
        core.queues[0].insert(hi)
        core.queues[0].sort()
        action, job, acquired = core.pick_next(0, None)
        assert (action, job, acquired) == ("start", hi, [])
        assert hi.blocked_on == set()

    def test_partial_unblock_keeps_job_parked(self):
        state = init(PolicyConfig())
        a0 = state.hwaccel_decl("a0")
        a1 = state.hwaccel_decl("a1")
        t = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        v = state.version_decl(t, wcet_estimate=ms(1))
        state.hwaccel_use(t, v, a0)
        state.hwaccel_use(t, v, a1)
        core = _core(state)
        job = core.make_job(state.task(t), 0)
        job.blocked_on = {0, 1}
        core.queues[0].insert(job)
        assert core.unblock_accel_waiters([0]) == []
        assert job.blocked_on == {1}
        assert core.unblock_accel_waiters([1]) == [job]


class TestWorkPending:
    def test_periodic_before_horizon(self):
        state = _periodic_state([ms(10)])
        core = _core(state)
        assert core.work_pending(horizon=ms(10)) is True
        core.due_releases(now=0, horizon=ms(10))
        assert core.work_pending(horizon=ms(10)) is False

    def test_pending_activation_counts(self):
        core, tid, aid = TestActivation()._sporadic_core()
        # flush initial periodic arrivals out of the window
        core.work_pending(horizon=0)
        core.activate(aid, now=ms(3))
        assert core.work_pending(horizon=ms(5)) is True
        core.due_releases(now=ms(3))
        assert core.work_pending(horizon=0) is False

    def test_graph_tokens_count(self):
        state = init(PolicyConfig())
        root = state.task_decl("root", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(root, wcet_estimate=us(10))
        node = state.task_decl("node", TaskKind.GRAPH_NODE)
        state.version_decl(node, wcet_estimate=us(10))
        ch = channel_decl(state, "c", element_size=8, capacity=4)
        channel_connect(state, ch, root, node)
        core = _core(state)
        core.due_releases(now=ms(100), horizon=ms(100))  # drain periodic arrivals
        assert core.work_pending(horizon=ms(100)) is False
        core.push(ch, "frame")
        assert core.work_pending(horizon=ms(100)) is True
        jobs = core.graph_activations(now=ms(50))
        assert [j.task.name for j in jobs] == ["node"]
        # the reservation consumed the token: no double activation
        assert core.graph_activations(now=ms(50)) == []
