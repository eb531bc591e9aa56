"""End-to-end acceptance checks, one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Reference values come from tests/oracles.py, which shares
no code with the package; hand-derived constants are frozen inline next
to the derivation they came from.

The last check needs three processors (two probe threads plus the
scheduler) and skips itself on smaller hosts; everything else runs on the
virtual clock and is host-independent.
"""

import math
import os
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtsched import (
    ChannelState,
    MappingScheme,
    PolicyConfig,
    PriorityAssignment,
    ScheduleTable,
    SdfEdge,
    SdfGraph,
    SdfInconsistentError,
    SimJobModel,
    TaskKind,
    TaskSetDocument,
    VersionSelection,
    channel_decl,
    init,
    ms,
    repetition_vector,
    run_simulation,
    scheduler_tick_period,
    us,
)
from rtsched.cli import main
from rtsched.sweep import SweepSpec, run_sweep

from .oracles import (
    OracleTask,
    actual_utilization,
    brute_timeline,
    gcd_oracle,
    miss_count,
    random_taskset,
    sdf_vector_brute,
    uunifast,
)


# ----------------------------------------------------------- helpers


def _build_state(tasks, *, mapping=MappingScheme.GLOBAL,
                 priority=PriorityAssignment.EDF, preemptive=True, workers=1):
    cfg = PolicyConfig(
        mapping_scheme=mapping,
        priority_assignment=priority,
        preemptive=preemptive,
        worker_count=workers,
    )
    state = init(cfg)
    execs = {}
    for t in tasks:
        kw = {"period": t.period}
        if t.offset:
            kw["release_offset"] = t.offset
        if t.deadline is not None:
            kw["relative_deadline"] = t.deadline
        if mapping is MappingScheme.PARTITIONED:
            kw["virt_core_id"] = 0
        tid = state.task_decl(t.name, TaskKind.PERIODIC, **kw)
        state.version_decl(tid, wcet_estimate=t.wcet)
        execs[t.name] = t.wcet
    return state, execs


def _ideal_run(tasks, **kw):
    horizon = kw.pop("horizon", None)
    state, execs = _build_state(tasks, **kw)
    return run_simulation(state, SimJobModel(exec_time=execs), horizon=horizon)


def _completions(trace):
    return {(e.task, e.job_seq, e.timestamp_ns)
            for e in trace if e.kind == "job_complete"}


# -------------------------------------------------- 1. determinism


def test_c01_deterministic_replay(tmp_path, capsys, monkeypatch):
    """Same file + same seed -> byte-identical trace CSV, 20 sets, <10s."""
    monkeypatch.delenv("RT_YASMIN_SEED", raising=False)
    rng = random.Random(1)
    t0 = time.perf_counter()
    for case in range(20):
        n = rng.randint(2, 5)
        tasks, versions, execs = [], [], {}
        for i, u in enumerate(uunifast(rng, n, 0.7)):
            period = rng.choice([ms(4), ms(5), ms(8), ms(10), ms(20)])
            wcet = max(2000, int(u * period))
            tasks.append({"name": f"t{i}", "kind": "periodic", "period": period})
            versions.append({"task": f"t{i}", "wcet_estimate": wcet})
            execs[f"t{i}"] = {"dist": "uniform", "low": wcet // 2, "high": wcet}
        doc = tmp_path / f"set{case}.json"
        doc.write_text(TaskSetDocument.load({
            "config": {"worker_count": 2},
            "tasks": tasks,
            "versions": versions,
            "sim_model": {
                "exec_time": execs,
                "get_task_cost": 2000,
                "context_switch_cost": 1000,
            },
        }).to_json())
        out = [tmp_path / f"run{case}_{k}.csv" for k in (0, 1)]
        for path in out:
            assert main(["simulate", str(doc), "--seed", str(case),
                         "--trace", str(path)]) == 0
        first, second = (p.read_bytes() for p in out)
        assert first == second
        assert first.count(b"\n") > 3
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    assert elapsed < 10.0


# ------------------------------------- 2. EDF feasibility boundary


def test_c02_edf_keeps_feasible_sets_and_drops_overloaded_ones():
    """U <= 1 on one core: zero misses in 100/100 random sets.  The same
    sets inflated to U ~ 1.05 miss in at least 90/100 (in fact the demand
    argument makes every inflated set miss within a hyperperiod)."""
    rng = random.Random(2)
    overloaded_missing = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        tasks = random_taskset(rng, n, rng.uniform(0.4, 1.0))
        _, report = _ideal_run(tasks, mapping=MappingScheme.PARTITIONED)
        assert report.misses == 0, f"feasible set missed: {tasks}"

        u = actual_utilization(tasks)
        inflated = [
            OracleTask(t.name, t.period, max(1, math.ceil(t.wcet * 1.05 / u)))
            for t in tasks
        ]
        _, report = _ideal_run(inflated, mapping=MappingScheme.PARTITIONED)
        if report.misses >= 1:
            overloaded_missing += 1
    assert overloaded_missing >= 90


# ------------------------------------------------ 3. RM utilization bound


def test_c03_rm_bound_sets_never_miss():
    """100 random sets under n(2^(1/n)-1) per core, preemptive RM.
    For n=2 that bound is 2(sqrt(2)-1) ~ 0.8284."""
    assert abs(2 * (2 ** 0.5 - 1) - 0.8284) < 1e-4
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 8)
        bound = n * (2 ** (1 / n) - 1)
        tasks = random_taskset(rng, n, bound)
        assert actual_utilization(tasks) <= bound
        _, report = _ideal_run(tasks, priority=PriorityAssignment.RM)
        assert report.misses == 0, f"RM-bound set missed: {tasks}"


# --------------------------------------------- 4. preemption necessity


def test_c04_preemption_necessity_against_timeline_oracle():
    """T=(4,10)ms, C=(1,6)ms on one core: preemptive EDF meets every
    deadline, non-preemptive EDF does not.  Full completion timelines are
    checked against the brute-force oracle; the frozen facts are that the
    only miss is t0#3 finishing at 17ms against a 16ms deadline."""
    tasks = [OracleTask("t0", ms(4), ms(1)), OracleTask("t1", ms(10), ms(6))]

    for preemptive, want_misses in ((True, 0), (False, 1)):
        trace, report = _ideal_run(tasks, preemptive=preemptive, horizon=ms(20))
        jobs = brute_timeline(tasks, ms(20), policy="EDF", preemptive=preemptive)
        assert report.misses == miss_count(jobs) == want_misses
        assert _completions(trace) == {(j.name, j.seq, j.finish) for j in jobs}
        if not preemptive:
            missed = [j for j in jobs if j.missed]
            assert [(j.name, j.seq, j.finish) for j in missed] == [
                ("t0", 3, ms(17))
            ]
            assert ms(17) > missed[0].deadline == ms(16)


# ------------------------------------------- 5. multi-version benefit


def test_c05_mixed_version_pool_beats_single_substrate():
    """Two 100ms tasks, two workers, one GPU.  CPU-only and GPU-only
    pools both miss; letting the selector pick per job (time-greedy,
    alpha=1) misses strictly less than either."""
    doc = TaskSetDocument.load({
        "config": {
            "worker_count": 2,
            "version_selection": "ENERGY_TIME",
        },
        "accelerators": ["gpu0"],
        "tasks": [
            {"name": "cam", "kind": "periodic", "period": ms(100)},
            {"name": "det", "kind": "periodic", "period": ms(100)},
        ],
        "versions": [
            {"task": "cam", "name": "cpu", "wcet_estimate": ms(120),
             "select": {"energy_cost": 9.0, "exec_time": ms(120)}},
            {"task": "cam", "name": "gpu", "wcet_estimate": ms(60),
             "accelerators": ["gpu0"],
             "select": {"energy_cost": 30.0, "exec_time": ms(60)}},
            {"task": "det", "name": "cpu", "wcet_estimate": ms(80),
             "select": {"energy_cost": 6.0, "exec_time": ms(80)}},
            {"task": "det", "name": "gpu", "wcet_estimate": ms(60),
             "accelerators": ["gpu0"],
             "select": {"energy_cost": 30.0, "exec_time": ms(60)}},
        ],
        "sim_model": {
            "alpha": 1.0,
            "exec_time": {
                "cam": {"cpu": ms(120), "gpu": ms(60)},
                "det": {"cpu": ms(80), "gpu": ms(60)},
            },
        },
    })
    spec = SweepSpec(
        mappings=["GLOBAL"], priorities=["EDF"], preemptive=[True],
        version_modes={"cpu": ["cpu"], "gpu": ["gpu"], "both": None},
        horizon="5hp",
    )
    misses = {r["version_mode"]: int(r["value"])
              for r in run_sweep(doc, spec) if r["metric"] == "misses"}
    assert set(misses) == {"cpu", "gpu", "both"}
    assert misses["both"] < misses["cpu"]
    assert misses["both"] < misses["gpu"]
    assert misses["both"] == 0


# -------------------------------------------------- 6. inheritance bound


def test_c06_priority_inheritance_bounds_blocking():
    """Classic inversion on one core, RM: a long low task holds the
    accelerator, a high task wants it 2ms in, a medium CPU-only task
    arrives at 3ms.  With inheritance the high task waits exactly the
    holder's remaining 8ms; without it the medium task runs in between
    and the wait grows to 28ms."""
    def scenario(pip_enabled):
        cfg = PolicyConfig(priority_assignment=PriorityAssignment.RM,
                           worker_count=1)
        state = init(cfg)
        accel = state.hwaccel_decl("dsp")
        lo = state.task_decl("lo", TaskKind.PERIODIC, period=ms(400))
        v = state.version_decl(lo, wcet_estimate=ms(10))
        state.hwaccel_use(lo, v, accel)
        hi = state.task_decl("hi", TaskKind.PERIODIC, period=ms(100),
                             release_offset=ms(2))
        v = state.version_decl(hi, wcet_estimate=ms(2))
        state.hwaccel_use(hi, v, accel)
        mid = state.task_decl("mid", TaskKind.PERIODIC, period=ms(200),
                              release_offset=ms(3))
        state.version_decl(mid, wcet_estimate=ms(20))
        model = SimJobModel(
            exec_time={"lo": ms(10), "hi": ms(2), "mid": ms(20)},
            pip_enabled=pip_enabled,
        )
        trace, _ = run_simulation(state, model, horizon=ms(40))
        [start] = [e.timestamp_ns for e in trace
                   if e.kind == "job_start" and e.task == "hi"]
        return start - ms(2)  # blocking: release at 2ms to first start

    holder_remaining = ms(10) - ms(2)
    assert scenario(pip_enabled=True) == holder_remaining
    assert scenario(pip_enabled=False) == ms(28) > holder_remaining


# ------------------------------------------------- 7. lock wait bounds


def test_c07_lock_wait_bounds_and_tight_case():
    """Worker wait <= (N-1)*get_task + scheduling section, scheduler wait
    <= N*get_task, over 50 seeded runs with N in {2,3,4}.  A crafted
    simultaneous-pull run then hits the worker bound exactly."""
    get_task = us(2)
    for seed in range(50):
        rng = random.Random(seed)
        n_workers = 2 + seed % 3
        tasks = random_taskset(rng, rng.randint(2, 5),
                               0.6 * n_workers)
        state, execs = _build_state(tasks, workers=n_workers)
        model = SimJobModel(
            exec_time=execs,
            get_task_cost=get_task,
            sched_scan_cost_per_task=us(1),
        )
        _, report = run_simulation(state, model, seed=seed)
        ov = report.overheads
        if ov.worker_lock_wait.count:
            bound = (n_workers - 1) * get_task + ov.scheduling.max
            assert ov.worker_lock_wait.max <= bound
        if ov.scheduler_lock_wait.count:
            assert ov.scheduler_lock_wait.max <= n_workers * get_task

    # three workers finish 2us apart just before the 10ms tick, so all
    # three re-pull behind the 3us scan: waits 3, 5, 7us, the last being
    # (3-1)*2us + 3us exactly
    tasks = [OracleTask(f"t{i}", ms(10), w)
             for i, w in enumerate((9_995_000, 9_993_000, 9_991_000))]
    state, execs = _build_state(tasks, workers=3)
    model = SimJobModel(
        exec_time=execs,
        get_task_cost=get_task,
        sched_scan_cost_per_task=us(1),
    )
    _, report = run_simulation(state, model, horizon="2hp")
    ov = report.overheads
    assert ov.scheduling.max == us(3)
    assert ov.worker_lock_wait.max == (3 - 1) * get_task + us(3) == 7000
    assert ov.scheduler_lock_wait.max <= 3 * get_task


# ------------------------------------------------------ 8. SDF vectors


def test_c08_repetition_vectors_match_brute_force():
    """10 random consistent graphs (<=5 actors, rates <=6) agree with the
    balance-search oracle; 5 graphs made inconsistent by one extra edge
    are all rejected."""
    rng = random.Random(8)

    def random_tree():
        actors = [f"a{j}" for j in range(rng.randint(2, 5))]
        edges = [
            (actors[rng.randrange(j)], actors[j],
             rng.randint(1, 6), rng.randint(1, 6))
            for j in range(1, len(actors))
        ]
        return actors, edges

    for _ in range(10):
        actors, edges = random_tree()
        want = sdf_vector_brute(actors, edges)
        assert want is not None
        got = repetition_vector(SdfGraph(
            actors=actors,
            edges=[SdfEdge(s, d, p, c) for s, d, p, c in edges],
        ))
        assert got == want

    rejected = 0
    while rejected < 5:
        actors, edges = random_tree()
        extra = (actors[0], actors[-1], rng.randint(1, 6), rng.randint(1, 6))
        if sdf_vector_brute(actors, edges + [extra]) is not None:
            continue  # the random extra edge happened to balance; redraw
        rejected += 1
        with pytest.raises(SdfInconsistentError, match="inconsistent"):
            repetition_vector(SdfGraph(
                actors=actors,
                edges=[SdfEdge(s, d, p, c) for s, d, p, c in edges + [extra]],
            ))


# ----------------------------------------------------- 9. scheduler tick


def test_c09_tick_is_gcd_of_periods_and_offsets():
    """200 random period/offset sets against the trial-division oracle,
    plus the 2-frames-per-second pair {500ms, 1000ms} -> 500ms."""
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 6)
        periods = [rng.randint(1, 1000) for _ in range(n)]
        offsets = [rng.choice([0, rng.randint(1, p)]) for p in periods]
        state = init(PolicyConfig())
        for i, (p, o) in enumerate(zip(periods, offsets)):
            state.task_decl(f"t{i}", TaskKind.PERIODIC, period=p,
                            release_offset=o)
        expected = gcd_oracle(periods + [o for o in offsets if o])
        assert scheduler_tick_period(state) == expected

    state = init(PolicyConfig())
    state.task_decl("camera", TaskKind.PERIODIC, period=ms(500))
    state.task_decl("planner", TaskKind.PERIODIC, period=ms(1000))
    assert scheduler_tick_period(state) == ms(500)


# ------------------------------------------------ 10. channel semantics


def test_c10_channels_are_fifo_and_conserve_tokens():
    @settings(max_examples=200, deadline=None)
    @given(
        ops=st.lists(st.sampled_from(["push", "pop"]), max_size=100),
        capacity=st.integers(min_value=1, max_value=8),
    )
    def run(ops, capacity):
        state = init(PolicyConfig())
        cid = channel_decl(state, "c", element_size=8, capacity=capacity)
        chan = ChannelState(state.channels[cid])
        model, pushed = [], 0
        for op in ops:
            if op == "push":
                if chan.can_push():
                    chan.push(pushed)
                    model.append(pushed)
                    pushed += 1
                else:
                    assert len(model) == capacity
            else:
                if chan.can_pop():
                    assert chan.pop() == model.pop(0)
                else:
                    assert not model
        assert chan.occupancy == len(model)

    run()


# ------------------------------------------------ 11. table replay


def test_c11_offline_table_starts_exactly_on_offsets():
    """A validated 2-core table replayed for 5 periods starts every entry
    at m*period + offset, with zero cost knobs."""
    cfg = PolicyConfig(
        mapping_scheme=MappingScheme.OFFLINE,
        version_selection=VersionSelection.PRESELECTED,
        preemptive=False,
        worker_count=2,
    )
    state = init(cfg)
    offsets = {"sense": 0, "fuse": ms(4), "plan": ms(1)}
    cores = {"sense": 0, "fuse": 0, "plan": 1}
    wcets = {"sense": ms(2), "fuse": ms(2), "plan": ms(3)}
    table = ScheduleTable(ms(10))
    for name in ("sense", "fuse", "plan"):
        tid = state.task_decl(name, TaskKind.PERIODIC, period=ms(10),
                              virt_core_id=cores[name])
        vid = state.version_decl(tid, wcet_estimate=wcets[name])
        table.add(cores[name], tid, vid, offsets[name])
    state.table = table
    assert state.validate() == []

    trace, report = run_simulation(
        state, SimJobModel(exec_time=wcets), horizon=ms(50)
    )
    starts = {}
    for e in trace:
        if e.kind == "job_start":
            starts.setdefault(e.task, []).append(e.timestamp_ns)
    assert set(starts) == set(offsets)
    for name, off in offsets.items():
        assert starts[name] == [m * ms(10) + off for m in range(5)]
    assert report.misses == 0


# ------------------------------------------------ 12. thread-backend probe


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 3,
    reason="latency probe needs 3 processors (2 threads + scheduler)",
)
def test_c12_latency_cli_reports_min_max_avg(capsys):
    """`latency --threads 2 --interval 10000 --loops 1000` completes and
    prints the min/max/avg triple per probe and pooled.  Values are
    platform noise and deliberately not asserted."""
    rc = main(["latency", "--threads", "2", "--interval", "10000",
               "--loops", "1000"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("probe0", "probe1", "all"):
        [line] = [ln for ln in out.splitlines() if f"{name}:" in ln]
        assert "min=" in line and "max=" in line and "avg=" in line
