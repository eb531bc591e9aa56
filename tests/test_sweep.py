"""Policy exploration over a document."""

import concurrent.futures
import dataclasses
import io
import threading

import pytest

from rtsched import (
    ConfigurationError,
    RtschedError,
    SWEEP_COLUMNS,
    SweepSpec,
    TaskSetDocument,
    best_policy,
    init,
    make_restrict,
    ms,
    run_simulation,
    run_sweep,
    write_sweep_csv,
)
import rtsched.sweep as sweep_mod
from rtsched.model import PolicyConfig, TaskKind
from rtsched.realtime import available_cpus
from rtsched.sweep import RUN_METRICS


def _doc(worker_count=1):
    return TaskSetDocument.load(
        {
            "config": {"worker_count": worker_count},
            "tasks": [
                {"name": "a", "kind": "periodic", "period": ms(10)},
                {"name": "b", "kind": "periodic", "period": ms(20)},
            ],
            "versions": [
                {"task": "a", "wcet_estimate": ms(2)},
                {"task": "b", "wcet_estimate": ms(4)},
            ],
        }
    )


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec()
        assert spec.points() == 4  # 1 mapping x 2 priorities x 2 preemption

    def test_from_dict(self):
        spec = SweepSpec.from_dict(
            {
                "priorities": ["EDF"],
                "preemptive": [True],
                "version_modes": {"fast": ["v0"], "any": None},
                "reps": 3,
                "seed": 11,
            }
        )
        assert spec.points() == 2
        assert spec.reps == 3 and spec.seed == 11
        assert spec.version_modes == {"fast": ["v0"], "any": None}

    def test_unknown_keys_rejected(self):
        with pytest.raises(RtschedError, match="unknown keys in sweep: reps_count"):
            SweepSpec.from_dict({"reps_count": 2})

    def test_bad_reps(self):
        with pytest.raises(RtschedError, match="reps must be >= 1"):
            SweepSpec.from_dict({"reps": 0})

    def test_empty_grid_rejected(self):
        with pytest.raises(RtschedError, match="grid is empty"):
            SweepSpec.from_dict({"priorities": []})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("preemptive", ["false"]),  # bool("false") is True
            ("preemptive", [1]),
            ("preemptive", True),
            ("reps", 2.5),  # int(2.5) is 2
            ("reps", True),
            ("reps", "2"),
            ("seed", "3"),
            ("mappings", "GLOBAL"),  # would iterate its letters
            ("priorities", ["EDF", 1]),
            ("version_modes", ["cpu"]),
            ("version_modes", {"cpu": "cpu"}),
            ("horizon", 2.5),
        ],
    )
    def test_wrongly_typed_value_rejected(self, key, value):
        with pytest.raises(RtschedError, match=f"bad sweep value: {key}: expected"):
            SweepSpec.from_dict({key: value})

    @pytest.mark.parametrize("key", ["mappings", "priorities"])
    def test_unknown_policy_name_rejected_however_the_spec_is_made(self, key):
        with pytest.raises(ConfigurationError, match=f"bad sweep value: {key}: expected"):
            SweepSpec.from_dict({key: ["GLOBAL", "EDF", "FIFO"]})
        with pytest.raises(ConfigurationError, match=f"bad sweep value: {key}: expected"):
            SweepSpec(**{key: ["FIFO"]})

    def test_reps_checked_however_the_spec_is_made(self):
        with pytest.raises(RtschedError, match="reps must be >= 1"):
            SweepSpec(reps=0)
        with pytest.raises(RtschedError, match="reps must be >= 1"):
            dataclasses.replace(SweepSpec(), reps=-1)


class TestMakeRestrict:
    def _state(self):
        state = init(PolicyConfig())
        t = state.task_decl("t", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(t, wcet_estimate=ms(1), name="fast")
        state.version_decl(t, wcet_estimate=ms(3), name="slow")
        u = state.task_decl("u", TaskKind.PERIODIC, period=ms(10))
        state.version_decl(u, wcet_estimate=ms(1), name="only")
        return state

    def test_none_means_no_restriction(self):
        assert make_restrict(self._state(), None) is None

    def test_filters_by_name(self):
        state = self._state()
        fn = make_restrict(state, ["slow"])
        assert [v.name for v in fn(state.tasks[0])] == ["slow"]

    def test_unmatched_task_keeps_full_set(self):
        state = self._state()
        fn = make_restrict(state, ["slow"])  # task u has no "slow"
        assert [v.name for v in fn(state.tasks[1])] == ["only"]

    def test_nothing_matches_anywhere(self):
        assert make_restrict(self._state(), ["turbo"]) is None


class TestRunSweep:
    def test_row_shape_and_count(self):
        spec = SweepSpec.from_dict({"reps": 2})
        rows = run_sweep(_doc(), spec)
        assert len(rows) == spec.points() * 2 * len(RUN_METRICS)
        assert all(set(r) == set(SWEEP_COLUMNS) for r in rows)
        # seeds advance per rep
        seeds = {(r["rep"], r["seed"]) for r in rows}
        assert seeds == {(0, 0), (1, 1)}

    def test_policy_labels_follow_the_point(self):
        rows = run_sweep(_doc(), SweepSpec())
        labels = {(r["mapping"], r["priority"]): r["policy"] for r in rows}
        assert labels == {("GLOBAL", "RM"): "G-RM", ("GLOBAL", "EDF"): "G-EDF"}

    def test_single_point_matches_direct_run(self):
        doc = _doc()
        spec = SweepSpec.from_dict(
            {"priorities": ["EDF"], "preemptive": [True]}
        )
        rows = run_sweep(doc, spec)
        raw = dict(doc.data)
        raw["config"] = dict(raw["config"], priority_assignment="EDF",
                             preemptive=True, mapping_scheme="GLOBAL")
        _, report = run_simulation(TaskSetDocument.load(raw).build_state(), seed=0)
        got = {r["metric"]: r["value"] for r in rows}
        assert got["released"] == report.released
        assert got["completed"] == report.completed
        assert got["misses"] == report.misses

    def test_failing_point_aborts_naming_it(self):
        doc = TaskSetDocument.load(
            {
                # partitioned needs virt_core_id: the PARTITIONED points fail
                "tasks": [{"name": "a", "kind": "periodic", "period": ms(10)}],
                "versions": [{"task": "a", "wcet_estimate": ms(1)}],
            }
        )
        spec = SweepSpec.from_dict(
            {"mappings": ["GLOBAL", "PARTITIONED"], "priorities": ["EDF"],
             "preemptive": [True]}
        )
        with pytest.raises(RtschedError, match=r"sweep point PARTITIONED/EDF/preemptive=True/any rep 0"):
            run_sweep(doc, spec)

    def test_version_mode_changes_outcome(self):
        doc = TaskSetDocument.load(
            {
                "config": {"worker_count": 1},
                "tasks": [{"name": "a", "kind": "periodic", "period": ms(10)}],
                "versions": [
                    {"task": "a", "name": "slow", "wcet_estimate": ms(12)},
                    {"task": "a", "name": "fast", "wcet_estimate": ms(2)},
                ],
            }
        )
        spec = SweepSpec.from_dict(
            {
                "priorities": ["EDF"],
                "preemptive": [True],
                "version_modes": {"default": None, "fast": ["fast"]},
            }
        )
        rows = run_sweep(doc, spec)
        misses = {
            r["version_mode"]: r["value"] for r in rows if r["metric"] == "misses"
        }
        assert misses["default"] == 1  # preselected slow version overruns
        assert misses["fast"] == 0


def _accel_doc():
    """Two workers, two accelerators, and per task a cpu version and a
    faster gpu version holding one of them, as in perfbench's sweep."""
    tasks, versions, exec_time = [], [], {}
    for i, (period, wcet) in enumerate([(10, 3), (20, 5), (25, 6), (40, 9)]):
        name, gpu = f"t{i}", ms(wcet) // 2
        tasks.append({"name": name, "kind": "periodic", "period": ms(period),
                      "virt_core_id": i % 2})
        versions.append({"task": name, "name": "cpu", "wcet_estimate": ms(wcet),
                         "select": {"energy_cost": 5.0 + i, "exec_time": ms(wcet)}})
        versions.append({"task": name, "name": "gpu", "wcet_estimate": gpu,
                         "accelerators": [f"gpu{i % 2}"],
                         "select": {"energy_cost": 20.0 + i, "exec_time": gpu}})
        exec_time[name] = {
            "cpu": {"dist": "uniform", "low": ms(wcet) // 2, "high": ms(wcet)},
            "gpu": {"dist": "uniform", "low": gpu // 2, "high": gpu},
        }
    return TaskSetDocument.load({
        "config": {"worker_count": 2, "version_selection": "ENERGY_TIME"},
        "accelerators": ["gpu0", "gpu1"],
        "tasks": tasks,
        "versions": versions,
        "sim_model": {"alpha": 0.7, "exec_time": exec_time},
    })


_GRID = {
    "mappings": ["GLOBAL", "PARTITIONED"],
    "priorities": ["RM", "EDF"],
    "preemptive": [True, False],
    "version_modes": {"cpu": ["cpu"], "gpu": ["gpu"], "both": None},
    "horizon": "100ms",
    "seed": 5,
}


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools run_sweep creates."""
    created = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            created.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return created


def _csv(rows):
    buf = io.StringIO()
    write_sweep_csv(rows, buf)
    return buf.getvalue()


def _cpus(monkeypatch, n):
    monkeypatch.setattr(sweep_mod, "available_cpus", lambda: n)


class TestParallelSweep:
    def test_pool_matches_serial_byte_for_byte(self, pools, monkeypatch):
        doc, spec = _accel_doc(), SweepSpec.from_dict(_GRID)
        _cpus(monkeypatch, 1)
        serial = run_sweep(doc, spec)
        assert pools == []
        _cpus(monkeypatch, 2)
        pooled = run_sweep(doc, spec)
        assert pools == [2]
        assert len(serial) == 24 * len(RUN_METRICS)
        assert pooled == serial
        assert _csv(pooled) == _csv(serial)
        # the grid tells points apart, so equal output is not a degenerate case
        assert len({r["value"] for r in serial if r["metric"] == "mean_response_ns"}) > 4

    def test_workers_capped_at_the_run_count(self, pools, monkeypatch):
        _cpus(monkeypatch, 8)
        spec = SweepSpec.from_dict({"priorities": ["EDF"], "preemptive": [True], "reps": 2})
        run_sweep(_doc(), spec)
        assert pools == [2]

    def test_first_failing_point_in_grid_order_raises(self, pools, monkeypatch):
        _cpus(monkeypatch, 2)
        doc = TaskSetDocument.load(
            {
                # PARTITIONED points lack virt_core_id, OFFLINE ones forbid
                # preemption: both fail, PARTITIONED first in grid order
                "tasks": [{"name": "a", "kind": "periodic", "period": ms(10)}],
                "versions": [{"task": "a", "wcet_estimate": ms(1)}],
            }
        )
        spec = SweepSpec.from_dict(
            {"mappings": ["GLOBAL", "PARTITIONED", "OFFLINE"], "priorities": ["EDF"],
             "preemptive": [True], "reps": 4}
        )
        with pytest.raises(RtschedError, match=r"sweep point PARTITIONED/EDF/preemptive=True/any rep 0: "):
            run_sweep(doc, spec)
        assert pools == [2]

    def test_live_thread_keeps_the_sweep_in_process(self, pools, monkeypatch):
        doc, spec = _accel_doc(), SweepSpec.from_dict(dict(_GRID, mappings=["GLOBAL"]))
        _cpus(monkeypatch, 1)
        serial = run_sweep(doc, spec)
        _cpus(monkeypatch, 2)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(10,))
        waiter.start()
        try:
            rows = run_sweep(doc, spec)
        finally:
            release.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert pools == []
        assert rows == serial

    def test_no_affinity_mask_counts_every_cpu(self, pools, monkeypatch):
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert available_cpus() == 1
        doc, spec = _accel_doc(), SweepSpec.from_dict(dict(_GRID, mappings=["GLOBAL"]))
        serial = run_sweep(doc, spec)
        assert pools == []
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert available_cpus() == 2
        assert run_sweep(doc, spec) == serial
        assert pools == [2]


class TestCsvAndBest:
    def test_csv_layout(self):
        rows = run_sweep(_doc(), SweepSpec.from_dict(
            {"priorities": ["EDF"], "preemptive": [True]}
        ))
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + len(rows)
        assert lines[1].startswith("G-EDF,GLOBAL,EDF,True,any,0,0,released,")

    def test_best_policy_prefers_fewest_misses(self):
        doc = TaskSetDocument.load(
            {
                "config": {"worker_count": 1},
                "tasks": [
                    # DM and EDF schedule this; RM's period ordering fails it
                    {"name": "urgent", "kind": "periodic", "period": ms(20),
                     "relative_deadline": ms(4)},
                    {"name": "bulky", "kind": "periodic", "period": ms(10)},
                ],
                "versions": [
                    {"task": "urgent", "wcet_estimate": ms(3)},
                    {"task": "bulky", "wcet_estimate": ms(5)},
                ],
            }
        )
        spec = SweepSpec.from_dict(
            {"priorities": ["RM", "DM"], "preemptive": [True]}
        )
        rows = run_sweep(doc, spec)
        best = best_policy(rows)
        assert best["priority"] == "DM"
        assert best["policy"] == "G-DM"
        assert best["total_misses"] == 0
        by_prio = {}
        for r in rows:
            if r["metric"] == "misses":
                by_prio[r["priority"]] = r["value"]
        assert by_prio["RM"] > 0

    def test_best_policy_empty(self):
        assert best_policy([]) is None
