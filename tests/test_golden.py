"""Golden traces: fixed-seed runs whose trace CSV and report JSON must not
move by a single byte.

Each case builds a task set, simulates it, and hashes the trace exactly as
`rtsched simulate --trace` writes it and the report exactly as `--report`
writes it.  A digest change means virtual-time behaviour changed; update a
digest only together with an explanation of why the output had to move.

The known SDF lost-wakeup scenario (a->b produce 3, b->c consume 3 over a
2 s horizon) is deliberately not pinned: its output is a defect.
"""

import copy
import dataclasses
import hashlib
import io
import json
import os

import pytest

from rtsched import (
    BitmaskSelect,
    EnergySelect,
    EnergyTimeSelect,
    MappingScheme,
    ModeSelect,
    PolicyConfig,
    PriorityAssignment,
    ScheduleTable,
    SdfEdge,
    SdfGraph,
    SimJobModel,
    SweepSpec,
    TaskKind,
    TaskSetDocument,
    VersionSelection,
    channel_connect,
    channel_decl,
    document_from_state,
    expand_sdf,
    init,
    load_document,
    ms,
    run_simulation,
    run_sweep,
    trace_csv_text,
    us,
    write_sweep_csv,
)
from rtsched.cli import main

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


def _sdf(actors, edges, wcets, model=None):
    state = init(PolicyConfig(worker_count=2))
    expand_sdf(
        state,
        SdfGraph(actors, [SdfEdge(*e) for e in edges]),
        period=ms(100),
        wcets=wcets,
        relative_deadline=ms(1000),
    )
    return state, model or SimJobModel(), "1s", 7


def _fanout(k, model=None):
    return _sdf(
        ["src", "w", "snk"],
        [("src", "w", k, 1), ("w", "snk", 1, k)],
        {"src": us(100), "w": us(200), "snk": us(100)},
        model,
    )


def _fanout8():
    # non-zero cost knobs: the queue lock serialises scheduler and workers
    return _fanout(8, SimJobModel(
        get_task_cost=us(2),
        sched_scan_cost_per_task=100,
        sort_cost_per_element=50,
        context_switch_cost=us(1),
    ))


def _fanout64():
    return _fanout(64)


def _chain():
    # firings 1:2:3:1 per iteration
    actors = ["a", "b", "c", "d"]
    return _sdf(
        actors,
        [("a", "b", 2, 1), ("b", "c", 3, 2), ("c", "d", 1, 3)],
        {a: us(100) for a in actors},
    )


def _document(name, horizon, seed):
    doc = load_document(os.path.join(DEMOS, name))
    return doc.build_state(), doc.sim_model(), horizon, seed


def _vision():
    return _document("vision_pipeline.json", None, 3)


def _drone():
    return _document("drone.json", "5hp", 3)


def _periodic(config, placed):
    state = init(config)
    exec_time = {}
    for i, (period, wcet) in enumerate(
        [(ms(10), ms(3)), (ms(20), ms(7)), (ms(25), ms(6)),
         (ms(40), ms(9)), (ms(50), ms(12)), (ms(100), ms(20))]
    ):
        tid = state.task_decl(f"t{i}", TaskKind.PERIODIC, period=period,
                              virt_core_id=i % 2 if placed else None)
        state.version_decl(tid, wcet_estimate=wcet)
        exec_time[f"t{i}"] = {"dist": "uniform", "low": wcet // 2, "high": wcet}
    model = SimJobModel(
        exec_time=exec_time,
        get_task_cost=us(5),
        sched_scan_cost_per_task=us(1),
        sort_cost_per_element=200,
        context_switch_cost=us(3),
    )
    return state, model, "200ms", 11


def _gedf_periodic():
    return _periodic(PolicyConfig(
        worker_count=2, priority_assignment=PriorityAssignment.EDF
    ), placed=False)


def _partitioned_rm():
    # same task set, placed alternately on the two per-core queues
    return _periodic(PolicyConfig(
        worker_count=2,
        mapping_scheme=MappingScheme.PARTITIONED,
        priority_assignment=PriorityAssignment.RM,
    ), placed=True)


def _offline_table():
    # cons parks on its input channel until prod on the other core pushes;
    # aux is due while prod may still run, so some entries start late
    state = init(PolicyConfig(
        worker_count=2,
        mapping_scheme=MappingScheme.OFFLINE,
        preemptive=False,
        version_selection=VersionSelection.PRESELECTED,
    ))
    table = ScheduleTable(ms(10))
    exec_time, tids = {}, {}
    for name, core, wcet, offset in [
        ("prod", 0, ms(4), 0), ("aux", 0, ms(5), ms(3)), ("cons", 1, ms(3), ms(1)),
    ]:
        tid = tids[name] = state.task_decl(
            name, TaskKind.PERIODIC, period=ms(10), virt_core_id=core
        )
        table.add(core, tid, state.version_decl(tid, wcet_estimate=wcet), offset)
        exec_time[name] = {"dist": "uniform", "low": wcet // 2, "high": wcet}
    channel_connect(state, channel_decl(state, "prod->cons", 8, 1),
                    tids["prod"], tids["cons"])
    state.table = table
    return state, SimJobModel(exec_time=exec_time), ms(100), 5


def _scripted_modes():
    # scripted sporadic (second request deferred by the min gap) and
    # aperiodic activations, a mode switch that changes hp's version, and
    # hp, lp and s contending for one accelerator under inheritance
    state = init(PolicyConfig(
        worker_count=2,
        priority_assignment=PriorityAssignment.EDF,
        version_selection=VersionSelection.MODE,
    ))
    gpu = state.hwaccel_decl("gpu")
    both = ModeSelect(frozenset({"lo", "hi"}))
    exec_time = {}
    for name, kind, period, deadline, versions in [
        ("hp", TaskKind.PERIODIC, ms(5), None,
         [("fast", "hi", ms(1)), ("slow", "lo", ms(2))]),
        ("lp", TaskKind.PERIODIC, ms(25), None, [("gpu", None, ms(6))]),
        ("mid", TaskKind.PERIODIC, ms(10), None, [("cpu", None, ms(3))]),
        ("s", TaskKind.SPORADIC, ms(20), ms(8), [("gpu", None, ms(2))]),
        ("a", TaskKind.APERIODIC, None, ms(6), [("cpu", None, ms(1))]),
    ]:
        tid = state.task_decl(name, kind, period=period, relative_deadline=deadline)
        for vname, mode, wcet in versions:
            select = both if mode is None else ModeSelect(frozenset({mode}))
            vid = state.version_decl(tid, wcet_estimate=wcet, select=select, name=vname)
            if vname != "cpu":
                state.hwaccel_use(tid, vid, gpu)
        exec_time[name] = {"dist": "uniform", "low": versions[0][2] // 2,
                           "high": versions[0][2]}
    model = SimJobModel(
        exec_time=exec_time,
        get_task_cost=us(4),
        sched_scan_cost_per_task=us(1),
        sort_cost_per_element=100,
        context_switch_cost=us(2),
        activations=[(ms(3), "s"), (ms(9), "s"), (ms(7), "a"), (ms(31), "a"),
                     (ms(44), "s")],
        mode_schedule=[(ms(20), frozenset({"hi"})), (ms(60), frozenset({"lo"}))],
        execution_mode=frozenset({"lo"}),
    )
    return state, model, ms(100), 13


def _body_ops_preempt():
    # prod and cons trade three tokens through a one-slot channel at
    # explicit mid-body offsets, so each parks on it in turn; hi preempts
    # them inside their exec segments, sometimes while prod is parked, and
    # the second preemption notice of each hi release finds the head gone
    state = init(PolicyConfig(
        worker_count=2, priority_assignment=PriorityAssignment.EDF
    ))
    exec_time, tids = {}, {}
    for name, period, wcet, low, offset, deadline in [
        ("prod", ms(10), ms(4), ms(3), 0, None),
        ("cons", ms(10), ms(4), ms(3), 0, None),
        ("hi", ms(5), ms(1), us(250), ms(2), ms(2)),
    ]:
        tids[name] = state.task_decl(name, TaskKind.PERIODIC, period=period,
                                     release_offset=offset, relative_deadline=deadline)
        state.version_decl(tids[name], wcet_estimate=wcet)
        exec_time[name] = {"dist": "uniform", "low": low, "high": wcet}
    channel_connect(state, channel_decl(state, "x", 8, 1), tids["prod"], tids["cons"])
    model = SimJobModel(
        exec_time=exec_time,
        get_task_cost=us(4),
        sched_scan_cost_per_task=us(1),
        sort_cost_per_element=100,
        context_switch_cost=us(2),
        body_ops={
            "prod": [(us(300), "push", "x", 1), (us(600), "push", "x", 1),
                     (us(900), "push", "x", 1)],
            "cons": [(us(200), "pop", "x", 1), (us(2500), "pop", "x", 1),
                     (ms(3), "pop", "x", 1)],
        },
    )
    return state, model, ms(100), 17


def _drawn_durations():
    # normal draws (one clamped at zero, one with decimal arguments) and
    # per-version distribution maps; a mode switch moves cam and log
    # between their versions, and log's "b" is unmapped, so it runs for
    # its wcet
    state = init(PolicyConfig(
        worker_count=2,
        priority_assignment=PriorityAssignment.EDF,
        version_selection=VersionSelection.MODE,
    ))
    lo, hi = ModeSelect(frozenset({"lo"})), ModeSelect(frozenset({"hi"}))
    both = ModeSelect(frozenset({"lo", "hi"}))
    for name, period, versions in [
        ("cam", ms(10), [("fast", hi, ms(2)), ("slow", lo, ms(4))]),
        ("ctl", ms(5), [("cpu", both, ms(1))]),
        ("log", ms(20), [("a", lo, ms(3)), ("b", hi, ms(3))]),
    ]:
        tid = state.task_decl(name, TaskKind.PERIODIC, period=period)
        for vname, select, wcet in versions:
            state.version_decl(tid, wcet_estimate=wcet, select=select, name=vname)
    model = SimJobModel(
        exec_time={
            "cam": {"fast": {"dist": "normal", "mean": 1.5e6, "std": 4e5},
                    "slow": {"dist": "uniform", "low": ms(2), "high": ms(4)}},
            "ctl": {"dist": "normal", "mean": us(300), "std": us(400)},
            "log": {"a": {"dist": "normal", "mean": ms(2), "std": us(500)}},
        },
        get_task_cost=us(3),
        sched_scan_cost_per_task=us(1),
        sort_cost_per_element=100,
        context_switch_cost=us(2),
        mode_schedule=[(ms(30), frozenset({"hi"})), (ms(70), frozenset({"lo"}))],
        execution_mode=frozenset({"lo"}),
    )
    return state, model, ms(100), 19


# case -> (build function, trace sha256, report sha256)
GOLDEN = {
    "fanout-k8": (
        _fanout8,
        "f82de367767becfe72d35545962b6ed44180ef6e50c54a7de18efb57c7991df2",
        "aa5f85ec75e468b65dac565429cde4af129b25cae2ddb9207bf90d85afd35e09",
    ),
    "fanout-k64": (
        _fanout64,
        "adbb521216ed74c8b745ca88646e849de8e9f272be187a750e0a5e6576daaa90",
        "ba266a46099af772a7135ea79173dfa9983625a0b3e799484a5fbb98ae620c04",
    ),
    "chain-1-2-3-1": (
        _chain,
        "f48f734d16260db59d694a3923ee19d2ccdf65584346d7849fdec682381bd9cb",
        "2720dccd5df0e9039de5ec63815f44dee0e00cb1098a6ba17d876b0960fbfe00",
    ),
    "vision-pipeline": (
        _vision,
        "12706726a55c5bfb2e64cca5670d1f136fbcf7a3d205cc8c0d8285a83c2b252b",
        "f0fbac9b83e34596b99c228d6efa0189b1aa2c91a857297156e3fead9ad73ab9",
    ),
    "drone": (
        _drone,
        "b8186c43ad2a53523da0bdff9198a49a570375004d9e90876e28a50e78678bd0",
        "5a406fa80d97f50872cb38a2ea9fa0a1e14ff492e2e715af2ec98e8314cdee50",
    ),
    "gedf-periodic": (
        _gedf_periodic,
        "80df078036bc9407aeef30d0b8c31693bed836683d68b02ff3fa94ce66af666f",
        "775596d09225ef05135c4fd040d2be631d87b58a6aa6ff7f56199d122b0f2663",
    ),
    "partitioned-rm": (
        _partitioned_rm,
        "ab7a3f84bf4fecb60619e8a37ceae074f4bd9c616c8b8fb93df088e49a42b178",
        "bac83c1afed9d1d38d35705a5e2f6696c7f55c105ef55a28a8b27d729de14649",
    ),
    "offline-table": (
        _offline_table,
        "5179a216c6d90e3dd2b04b817e338bd982155ae397460f4be7e388a6c9836cd1",
        "0a43ecb51b023c601c0a5d0573f28002181579fb2335e5313aa60d9def1f64be",
    ),
    "scripted-modes": (
        _scripted_modes,
        "be92b5a0ef9123c42b1da54a137efc396eba7af492c6a82f7ac74fa451104e5e",
        "dc9fdbc8dafae5537e95b0b2bf2317433cf573dd8d0fa65a8a0dc62a68537738",
    ),
    "body-ops-preempt": (
        _body_ops_preempt,
        "7b3eaf797ca00f2a609fbaeef43677dcd888d446093fe002d26f755fe30db8c8",
        "90631c21ec6252987c33fbc910d21dcd22cf5271af4e38ef3c461ec66fa6b6b6",
    ),
    "drawn-durations": (
        _drawn_durations,
        "fc850cd4417185e0ae1d2e2a230d6589d8ca18aae0941dda89c8bf0d7b70fef1",
        "6e055aaad7ae475e897a70fc6b1f1c19d18d632f7343dfa422c4c6748d409e80",
    ),
}


def digests(build):
    state, model, horizon, seed = build()
    trace, report = run_simulation(state, model, horizon=horizon, seed=seed)
    assert not report.truncated
    assert report.released == report.completed > 0
    report_text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    return (
        hashlib.sha256(trace_csv_text(trace).encode()).hexdigest(),
        hashlib.sha256(report_text.encode()).hexdigest(),
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_digests(case):
    build, trace_sha, report_sha = GOLDEN[case]
    assert digests(build) == (trace_sha, report_sha)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# The sweep CSV: `rtsched sweep` over a grid must not move either.
def _energy_time_doc():
    # five tasks, each with a cpu version and a faster gpu version on one of
    # two accelerators; at alpha 0.7 four rank the gpu version first, so in
    # the unrestricted mode their jobs switch versions around busy units
    tasks = [("cam", 10, 6, 2, "gpu0", 8.0, 24.0, 0), ("det", 20, 12, 4, "gpu0", 6.0, 30.0, 1),
             ("nav", 25, 6, 3, "gpu1", 5.0, 22.0, 0), ("map", 40, 12, 5, "gpu1", 9.0, 26.0, 1),
             ("log", 50, 8, 6, "gpu0", 2.0, 35.0, 0)]
    versions, exec_time = [], {}
    for name, _, cpu, gpu, accel, cpu_energy, gpu_energy, _ in tasks:
        versions += [
            {"task": name, "name": "cpu", "wcet_estimate": ms(cpu),
             "select": {"energy_cost": cpu_energy, "exec_time": ms(cpu)}},
            {"task": name, "name": "gpu", "wcet_estimate": ms(gpu), "accelerators": [accel],
             "select": {"energy_cost": gpu_energy, "exec_time": ms(gpu)}},
        ]
        exec_time[name] = {v: {"dist": "uniform", "low": ms(w) // 2, "high": ms(w)}
                           for v, w in (("cpu", cpu), ("gpu", gpu))}
    doc = TaskSetDocument.load({
        "config": {"worker_count": 2, "version_selection": "ENERGY_TIME"},
        "accelerators": ["gpu0", "gpu1"],
        "tasks": [{"name": name, "kind": "periodic", "period": ms(period), "virt_core_id": core}
                  for name, period, *_, core in tasks],
        "versions": versions,
        "sim_model": {"alpha": 0.7, "exec_time": exec_time},
    })
    spec = SweepSpec(mappings=["GLOBAL", "PARTITIONED"], priorities=["RM", "EDF"],
                     preemptive=[True, False],
                     version_modes={"cpu": ["cpu"], "gpu": ["gpu"], "both": None},
                     reps=2, horizon="200ms", seed=5)
    return doc, spec


def _drone_sweep():
    with open(os.path.join(DEMOS, "drone_axes.json")) as fp:
        spec = SweepSpec.from_dict(json.load(fp))
    return load_document(os.path.join(DEMOS, "drone.json")), spec


def _energy_time_implicit():
    # every deadline equals its period, so RM and DM points share runs, and
    # the mode naming no version shares with the unrestricted one
    doc, spec = _energy_time_doc()
    return doc, dataclasses.replace(
        spec, priorities=["RM", "DM", "EDF"],
        version_modes=dict(spec.version_modes, none=["turbo"]),
    )


def _energy_time_constrained():
    # det's deadline (8 ms) falls below cam's period (10 ms): DM ranks det
    # first and RM ranks cam first, so both are simulated
    doc, spec = _energy_time_implicit()
    raw = copy.deepcopy(doc.data)
    raw["tasks"][1]["relative_deadline"] = ms(8)
    return TaskSetDocument.load(raw), spec


SWEEP_GOLDEN = {
    "energy-time-grid": (
        _energy_time_doc,
        "91bed865f76eecf4487d8d4af8a5eed6a87aabbae3dc95a7c00d37784c40df77",
    ),
    "drone": (
        _drone_sweep,
        "f1c9730a6c75e82d0fff79c3511cdffb6959b751b2c2aed89bcc922791daae92",
    ),
    "energy-time-rm-dm-edf": (
        _energy_time_implicit,
        "04499db5acd2cef2225c09364d48079839ab3ca0899187df94110e944110fb66",
    ),
    "energy-time-constrained": (
        _energy_time_constrained,
        "508a367c50c248c109c04daa0f6cd4e56ca21f59c52404127ee7099c37e275a8",
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_GOLDEN))
def test_sweep_csv(case):
    build, want = SWEEP_GOLDEN[case]
    out = io.StringIO()
    write_sweep_csv(run_sweep(*build()), out)
    assert _sha(out.getvalue()) == want


# The document writer: the standard output of `rtsched expand-sdf` and a
# document written back from a built state must not move either.
def test_expand_sdf_stdout(capsys):
    assert main(["expand-sdf", os.path.join(DEMOS, "vision_pipeline.json")]) == 0
    assert _sha(capsys.readouterr().out) == (
        "663291fc8674f407154ee905cc4b7634c616186b00aab5c2cb6f01ce24a54ed1"
    )


def test_document_from_state():
    state = load_document(os.path.join(DEMOS, "drone.json")).build_state()
    assert _sha(document_from_state(state).to_json()) == (
        "7085080ca001e123418fc4a9ae1b839e2e68e6f5b43ca819033e708b41e226e5"
    )


# Every sim-model field away from its default, so the writer emits each key.
_WRITER_MODEL = SimJobModel(
    exec_time={"a": {"dist": "uniform", "low": us(100), "high": us(200)},
               "b": {"fast": us(50), "slow": {"dist": "normal", "mean": 3e5, "std": 2e4}}},
    get_task_cost=us(2),
    sched_scan_cost_per_task=100,
    sort_cost_per_element=50,
    context_switch_cost=us(1),
    activations=[(ms(3), "b"), (ms(9), "b")],
    mode_schedule=[(ms(20), frozenset({"lo", "hi"})), (ms(60), frozenset({"lo"}))],
    execution_mode=frozenset({"lo", "hi"}),
    permission_mask=frozenset({"net", "cam"}),
    battery_level=0.75,
    alpha=0.25,
    pip_enabled=False,
    body_ops={"a": [(us(10), "pop", "x", 1), (us(90), "push", "y", 2)]},
)


def _writer_offline():
    # accelerators, a dispatch table, channels with initial tokens and
    # connections with required_tokens and push_count
    state = init(PolicyConfig(
        worker_count=3,
        mapping_scheme=MappingScheme.OFFLINE,
        priority_assignment=PriorityAssignment.DM,
        preemptive=False,
    ))
    gpu, dma = state.hwaccel_decl("gpu"), state.hwaccel_decl("dma")
    a = state.task_decl("a", TaskKind.PERIODIC, period=ms(10), relative_deadline=ms(8),
                        release_offset=ms(1), virt_core_id=0, user_priority=3)
    b = state.task_decl("b", TaskKind.SPORADIC, period=ms(20), virt_core_id=1)
    c = state.task_decl("c", TaskKind.APERIODIC, relative_deadline=ms(5), virt_core_id=1)
    a0 = state.version_decl(a, wcet_estimate=ms(2))
    a1 = state.version_decl(a, wcet_estimate=ms(1), name="accel")
    state.hwaccel_use(a, a1, gpu)
    state.hwaccel_use(a, a1, dma)
    b0 = state.version_decl(b, wcet_estimate=ms(3), name="fast")
    state.hwaccel_use(b, b0, dma)
    state.version_decl(b, wcet_estimate=ms(4), name="slow")
    state.version_decl(c, wcet_estimate=us(500))
    x = channel_decl(state, "x", 8, 4)
    state.channels[x].initial_tokens = 2
    channel_connect(state, x, a, b, required_tokens=2, push_count=3)
    channel_connect(state, channel_decl(state, "y", 0, 0), b, c)
    channel_decl(state, "idle", 16, 1)
    table = ScheduleTable(ms(20))
    table.add(1, b, b0, ms(2))
    table.add(0, a, a1, 0)
    table.add(0, a, a0, ms(10))
    state.table = table
    return state


def _writer_select(method, selects):
    # two tasks, each version carrying its select block
    state = init(PolicyConfig(version_selection=method))
    for name, props in zip("ab", selects):
        tid = state.task_decl(name, TaskKind.PERIODIC, period=ms(10))
        for i, p in enumerate(props):
            state.version_decl(tid, wcet_estimate=ms(1 + i), select=p)
    return state


WRITER_STATES = {
    "offline": _writer_offline,
    "energy": lambda: _writer_select(VersionSelection.ENERGY, [
        [EnergySelect(0.5), EnergySelect(2)], [EnergySelect(1.25)],
    ]),
    "energy-time": lambda: _writer_select(VersionSelection.ENERGY_TIME, [
        [EnergyTimeSelect(0.5, ms(1)), EnergyTimeSelect(3, ms(2))],
        [EnergyTimeSelect(1.5, us(700))],
    ]),
    "mode": lambda: _writer_select(VersionSelection.MODE, [
        [ModeSelect(frozenset({"lo"})), ModeSelect(frozenset({"hi", "lo"}))],
        [ModeSelect(frozenset({"hi"}))],
    ]),
    "bitmask": lambda: _writer_select(VersionSelection.BITMASK, [
        [BitmaskSelect(frozenset({"net", "cam"}))], [BitmaskSelect(frozenset({"gps"}))],
    ]),
}


def test_writer_golden():
    docs = [document_from_state(WRITER_STATES[name](), _WRITER_MODEL)
            for name in sorted(WRITER_STATES)]
    assert _sha("".join(doc.to_json() for doc in docs)) == (
        "fdde3aff6c19f50b4d31d300331b11a836bacfaf3fa19439f58a5aaa69f9814f"
    )
    for doc in docs:  # a written document reads back to equal values (2 as 2.0)
        again = document_from_state(doc.build_state(), doc.sim_model())
        assert json.loads(again.to_json()) == json.loads(doc.to_json())
