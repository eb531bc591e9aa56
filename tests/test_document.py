"""JSON documents: parsing, state building, round trips."""

import copy
import dataclasses
import io
import json
import re

import pytest

from rtsched import (
    ConfigurationError,
    DeclarationError,
    MappingScheme,
    PriorityAssignment,
    ScheduleTable,
    SimJobModel,
    TaskKind,
    TaskSetDocument,
    VersionSelection,
    document_from_state,
    init,
    load_document,
    ms,
    run_simulation,
)
from rtsched.model import (
    ClockSource,
    LockingStrategy,
    PolicyConfig,
    WaitingStrategy,
)


def _minimal():
    return {
        "tasks": [{"name": "t", "kind": "periodic", "period": ms(10)}],
        "versions": [{"task": "t", "wcet_estimate": ms(2)}],
    }


def _with(doc, value, *path):
    """`doc` with the value at `path` (keys and list indices) replaced."""
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def _selecting(method, select):
    """A document whose one version carries `select` under `method`."""
    raw = _minimal()
    raw["config"] = {"version_selection": method}
    raw["versions"][0]["select"] = select
    return raw


_GRAPH = {
    "tasks": [
        {"name": "src", "kind": "periodic", "period": ms(10)},
        {"name": "snk", "kind": "graph_node"},
    ],
    "versions": [
        {"task": "src", "wcet_estimate": ms(1)},
        {"task": "snk", "wcet_estimate": ms(1)},
    ],
    "channels": [{"name": "c", "capacity": 2}],
    "connections": [{"channel": "c", "src": "src", "dst": "snk"}],
}
_SDF = {
    "sdf": {
        "period": ms(40),
        "wcets": {"a": ms(1), "b": ms(1)},
        "edges": [{"src": "a", "dst": "b", "produce": 2, "consume": 3}],
    },
}
_TABLE = {
    "config": {"mapping_scheme": "OFFLINE", "preemptive": False, "worker_count": 1},
    "tasks": [{"name": "t", "kind": "periodic", "period": ms(10), "virt_core_id": 0}],
    "versions": [{"task": "t", "name": "main", "wcet_estimate": ms(2)}],
    "table": {"period": ms(10),
              "entries": [{"core": 0, "task": "t", "version": "main", "offset": 0}]},
}


def _variant(value, *path, base=_GRAPH):
    """A maker of a copy of `base` with the value at `path` replaced."""
    return lambda: _with(copy.deepcopy(base), value, *path)


# (entry, key, document): a value of the wrong JSON type in each section
# and each select block, first the ones that crashed or were coerced
WRONGLY_TYPED = [
    ("tasks[0]", "period", lambda: {"tasks": [{"name": "a", "period": "10"}]}),
    ("channels[0]", "capacity", _variant("2", "channels", 0, "capacity")),
    ("document root", "tasks", lambda: {"tasks": [5]}),
    ("versions[0]", "wcet_estimate",
     lambda: _with(_minimal(), "5", "versions", 0, "wcet_estimate")),
    ("versions[0]", "wcet_estimate",
     lambda: _with(_minimal(), 2.9, "versions", 0, "wcet_estimate")),
    ("document root", "config", lambda: dict(_minimal(), config=[])),
    ("document root", "accelerators", lambda: dict(_minimal(), accelerators="gpu")),
    ("config", "worker_count", lambda: dict(_minimal(), config={"worker_count": "2"})),
    ("tasks[0]", "kind", lambda: _with(_minimal(), "cyclic", "tasks", 0, "kind")),
    ("tasks[0]", "release_offset", lambda: _with(_minimal(), None, "tasks", 0, "release_offset")),
    ("versions[0]", "accelerators", lambda: _with(_minimal(), "gpu", "versions", 0, "accelerators")),
    ("versions[0].select", "energy_budget",
     lambda: _selecting("ENERGY", {"energy_budget": "1"})),
    ("versions[0].select", "exec_time",
     lambda: _selecting("ENERGY_TIME", {"energy_cost": 1.0, "exec_time": 1.5})),
    ("versions[0].select", "mode_mask", lambda: _selecting("MODE", {"mode_mask": "day"})),
    ("versions[0].select", "permission_mask",
     lambda: _selecting("BITMASK", {"permission_mask": [1]})),
    ("channels[0]", "initial_tokens", _variant(True, "channels", 0, "initial_tokens")),
    ("connections[0]", "push_count", _variant("2", "connections", 0, "push_count")),
    ("sdf", "period", _variant("40", "sdf", "period", base=_SDF)),
    ("sdf", "wcets", _variant({"a": 1.5, "b": 1}, "sdf", "wcets", base=_SDF)),
    ("sdf.edges[0]", "produce", _variant(2.0, "sdf", "edges", 0, "produce", base=_SDF)),
    ("table", "period", _variant("10", "table", "period", base=_TABLE)),
    ("table.entries[0]", "core", _variant("0", "table", "entries", 0, "core", base=_TABLE)),
    ("sim_model", "activations", lambda: dict(_minimal(), sim_model={"activations": [[5]]})),
]


class TestLoad:
    def test_from_dict(self):
        doc = TaskSetDocument.load(_minimal())
        assert doc.data["tasks"][0]["name"] == "t"

    def test_from_json_text(self):
        doc = TaskSetDocument.load(json.dumps(_minimal()))
        assert doc.data["versions"][0]["wcet_estimate"] == ms(2)

    def test_from_path(self, tmp_path):
        p = tmp_path / "set.json"
        p.write_text(json.dumps(_minimal()))
        assert load_document(p).data == _minimal()
        assert load_document(str(p)).data == _minimal()

    def test_from_open_file(self):
        fp = io.StringIO(json.dumps(_minimal()))
        assert TaskSetDocument.load(fp).data == _minimal()

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            TaskSetDocument.load("{oops")

    def test_non_object_root_rejected(self):
        with pytest.raises(ConfigurationError, match="root"):
            TaskSetDocument.load("[1, 2]")


class TestStrictKeys:
    def test_unknown_top_key(self):
        raw = _minimal()
        raw["taskz"] = []
        with pytest.raises(ConfigurationError, match="unknown keys.*taskz"):
            TaskSetDocument.load(raw)

    def test_unknown_config_key(self):
        raw = _minimal()
        raw["config"] = {"preemptable": True}
        with pytest.raises(ConfigurationError, match="config.*preemptable"):
            TaskSetDocument.load(raw)

    def test_unknown_task_key_names_the_entry(self):
        raw = _minimal()
        raw["tasks"][0]["priod"] = 5
        with pytest.raises(ConfigurationError, match=r"tasks\[0\].*priod"):
            TaskSetDocument.load(raw)

    def test_missing_required_key(self):
        raw = _minimal()
        del raw["versions"][0]["wcet_estimate"]
        with pytest.raises(ConfigurationError, match="wcet_estimate"):
            TaskSetDocument.load(raw)

    def test_bad_enum_value(self):
        raw = _minimal()
        raw["config"] = {"priority_assignment": "LLF"}
        with pytest.raises(ConfigurationError, match="bad config value"):
            TaskSetDocument.load(raw).config()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("config", "preemptive", "false"),  # bool("false") is True
            ("config", "preemptive", 0),
            ("config", "worker_count", 2.7),  # int(2.7) is 2
            ("config", "worker_count", True),
            ("config", "worker_count", "2"),
            ("sim_model", "execution_mode", "day"),  # frozenset("day")
            ("sim_model", "permission_mask", [1]),
            ("sim_model", "alpha", True),
            ("sim_model", "alpha", "0.5"),
            ("sim_model", "pip_enabled", 1),
            ("sim_model", "get_task_cost", 1.5),
        ],
    )
    def test_wrongly_typed_value_rejected(self, section, key, value):
        raw = _minimal()
        raw[section] = {key: value}
        with pytest.raises(ConfigurationError, match=f"bad {section} value: {key}: expected"):
            TaskSetDocument.load(raw)

    def test_exactly_typed_values_accepted(self):
        raw = _minimal()
        raw["config"] = {"preemptive": False, "worker_count": 3}
        raw["sim_model"] = {"alpha": 1, "execution_mode": ["day"], "pip_enabled": False}
        doc = TaskSetDocument.load(raw)
        assert doc.config() == PolicyConfig(preemptive=False, worker_count=3)
        model = doc.sim_model()
        assert model.alpha == 1.0 and isinstance(model.alpha, float)
        assert model.execution_mode == frozenset({"day"})
        assert model.pip_enabled is False

    @pytest.mark.parametrize("where, key, make", WRONGLY_TYPED)
    def test_wrongly_typed_value_fails_at_load(self, where, key, make):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"bad {where} value: {key}: expected")):
            TaskSetDocument.load(make())

    def test_long_bad_value_is_cut_short(self):
        tasks = [{"name": f"t{i}", "period": ms(10)} for i in range(200)] + [5]
        with pytest.raises(ConfigurationError) as err:
            TaskSetDocument.load({"tasks": tasks})
        message = str(err.value)
        assert message.startswith("bad document root value: tasks: expected a list of objects")
        assert len(message) < 200 and message.endswith(" ...")

    def test_every_section_of_the_cases_loads_when_well_typed(self):
        for raw in (_minimal(), _GRAPH, _SDF, _TABLE):
            TaskSetDocument.load(copy.deepcopy(raw)).build_state()
        for method, select in [("ENERGY", {"energy_budget": 1}),
                               ("ENERGY_TIME", {"energy_cost": 2, "exec_time": 5}),
                               ("MODE", {"mode_mask": ["day"]}),
                               ("BITMASK", {"permission_mask": ["cam"]})]:
            TaskSetDocument.load(_selecting(method, select)).build_state()

    def test_table_version_is_a_name_or_an_id(self):
        for version in ("main", "0", 0):
            raw = _with(copy.deepcopy(_TABLE), version, "table", "entries", 0, "version")
            [entry] = TaskSetDocument.load(raw).build_state().table.cores[0]
            assert entry.version_id == 0

    def test_bad_converted_value_names_the_field(self):
        raw = _minimal()
        raw["sim_model"] = {"activations": 5}
        with pytest.raises(ConfigurationError, match="bad sim_model value: activations: "):
            TaskSetDocument.load(raw).sim_model()


class TestBuildState:
    def test_defaults(self):
        cfg = TaskSetDocument.load(_minimal()).config()
        assert cfg.mapping_scheme is MappingScheme.GLOBAL
        assert cfg.priority_assignment is PriorityAssignment.EDF
        assert cfg.preemptive is True
        assert cfg.version_selection is VersionSelection.PRESELECTED
        assert cfg.worker_count == 2

    def test_simple_build_runs(self):
        doc = TaskSetDocument.load(_minimal())
        state = doc.build_state()
        trace, report = run_simulation(state, doc.sim_model())
        assert report.completed == 1

    def test_version_accelerator_binding(self):
        raw = _minimal()
        raw["accelerators"] = ["gpu"]
        raw["versions"][0]["accelerators"] = ["gpu"]
        state = TaskSetDocument.load(raw).build_state()
        assert state.tasks[0].versions[0].accelerators == {0}

    def test_unknown_references_rejected(self):
        raw = _minimal()
        raw["versions"][0]["task"] = "ghost"
        with pytest.raises(ConfigurationError, match="unknown task 'ghost'"):
            TaskSetDocument.load(raw).build_state()
        raw = _minimal()
        raw["versions"][0]["accelerators"] = ["gpu"]
        with pytest.raises(ConfigurationError, match="unknown accelerator"):
            TaskSetDocument.load(raw).build_state()

    def test_user_version_selection_needs_code(self):
        raw = _minimal()
        raw["config"] = {"version_selection": "USER"}
        with pytest.raises(ConfigurationError, match="callback"):
            TaskSetDocument.load(raw).build_state()

    def test_user_priority_is_file_expressible(self):
        raw = _minimal()
        raw["config"] = {"priority_assignment": "USER"}
        raw["tasks"][0]["user_priority"] = 3
        state = TaskSetDocument.load(raw).build_state()
        assert state.tasks[0].user_priority == 3
        _, report = run_simulation(state)
        assert report.completed == 1

    def test_select_block_required_outside_preselected(self):
        raw = _minimal()
        raw["config"] = {"version_selection": "ENERGY_TIME"}
        with pytest.raises(ConfigurationError, match="select block"):
            TaskSetDocument.load(raw).build_state()
        raw["versions"][0]["select"] = {"energy_cost": 2.0, "exec_time": ms(1)}
        state = TaskSetDocument.load(raw).build_state()
        assert state.tasks[0].versions[0].select_props.energy_cost == 2.0

    def test_select_block_refused_under_preselected(self):
        raw = _minimal()
        raw["versions"][0]["select"] = {"energy_budget": 1.0}
        with pytest.raises(ConfigurationError, match="not allowed"):
            TaskSetDocument.load(raw).build_state()

    def test_channels_and_connections(self):
        raw = {
            "tasks": [
                {"name": "src", "kind": "periodic", "period": ms(10)},
                {"name": "snk", "kind": "graph_node", "relative_deadline": ms(5)},
            ],
            "versions": [
                {"task": "src", "wcet_estimate": ms(1)},
                {"task": "snk", "wcet_estimate": ms(1)},
            ],
            "channels": [
                {"name": "c", "element_size": 8, "capacity": 2, "initial_tokens": 1}
            ],
            "connections": [
                {"channel": "c", "src": "src", "dst": "snk",
                 "required_tokens": 2, "push_count": 2}
            ],
        }
        state = TaskSetDocument.load(raw).build_state()
        ch = state.channels[0]
        assert (ch.src, ch.dst, ch.initial_tokens) == (0, 1, 1)
        assert (ch.required_tokens, ch.push_count) == (2, 2)

    def test_sdf_section_expands(self):
        raw = {
            "config": {"worker_count": 2},
            "sdf": {
                "period": ms(40),
                "wcets": {"a": ms(1), "b": ms(1)},
                "edges": [{"src": "a", "dst": "b", "produce": 2, "consume": 3}],
            },
        }
        state = TaskSetDocument.load(raw).build_state()
        names = [t.name for t in state.tasks]
        # repetition vector a:3 b:2
        assert names == ["a#0", "a#1", "a#2", "b#0", "b#1"]
        assert state.tasks[0].period == ms(40)
        assert state.tasks[3].period is None

    def test_table_section(self):
        raw = {
            "config": {
                "mapping_scheme": "OFFLINE",
                "preemptive": False,
                "worker_count": 1,
            },
            "tasks": [{"name": "t", "kind": "periodic", "period": ms(10),
                       "virt_core_id": 0}],
            "versions": [{"task": "t", "name": "main", "wcet_estimate": ms(2)}],
            "table": {
                "period": ms(10),
                "entries": [{"core": 0, "task": "t", "version": "main", "offset": 0}],
            },
        }
        state = TaskSetDocument.load(raw).build_state()
        assert state.table.table_period == ms(10)
        [entry] = state.table.cores[0]
        assert (entry.task_id, entry.version_id, entry.release_offset) == (0, 0, 0)

    def test_table_unknown_version_rejected(self):
        raw = {
            "config": {"mapping_scheme": "OFFLINE", "preemptive": False,
                       "worker_count": 1},
            "tasks": [{"name": "t", "kind": "periodic", "period": ms(10),
                       "virt_core_id": 0}],
            "versions": [{"task": "t", "wcet_estimate": ms(2)}],
            "table": {"period": ms(10),
                      "entries": [{"core": 0, "task": "t", "version": "fast",
                                   "offset": 0}]},
        }
        with pytest.raises(ConfigurationError, match="unknown version 'fast'"):
            TaskSetDocument.load(raw).build_state()


    def test_duplicate_version_name_rejected(self):
        # table entries name versions, so a second "x" would be ambiguous
        raw = {
            "config": {"mapping_scheme": "OFFLINE", "preemptive": False,
                       "worker_count": 1},
            "tasks": [{"name": "a", "kind": "periodic", "period": ms(10),
                       "virt_core_id": 0}],
            "versions": [{"task": "a", "name": "x", "wcet_estimate": ms(2)},
                         {"task": "a", "name": "x", "wcet_estimate": ms(3)}],
            "table": {"period": ms(10),
                      "entries": [{"core": 0, "task": "a", "version": 1, "offset": 0}]},
        }
        with pytest.raises(DeclarationError, match="task 'a' already has a version named 'x'"):
            TaskSetDocument.load(raw).build_state()


class TestSimModel:
    def test_defaults(self):
        m = TaskSetDocument.load(_minimal()).sim_model()
        assert m.get_task_cost == 0 and m.exec_time == {}
        assert m.pip_enabled is True and m.alpha == 0.5

    def test_full_block(self):
        raw = _minimal()
        raw["sim_model"] = {
            "exec_time": {"t": {"dist": "uniform", "low": 1, "high": 2}},
            "get_task_cost": 2000,
            "activations": [[5, "t"]],
            "mode_schedule": [[9, ["night"]]],
            "execution_mode": ["day"],
            "battery_level": 80.5,
            "alpha": 0.25,
            "pip_enabled": False,
            "body_ops": {"t": [[0, "pop", "c", 1]]},
        }
        m = TaskSetDocument.load(raw).sim_model()
        assert m.get_task_cost == 2000
        assert m.activations == [(5, "t")]
        assert m.mode_schedule == [(9, frozenset({"night"}))]
        assert m.execution_mode == frozenset({"day"})
        assert m.battery_level == 80.5
        assert m.alpha == 0.25 and m.pip_enabled is False
        assert m.body_ops == {"t": [(0, "pop", "c", 1)]}

    def test_unknown_sim_key_rejected(self):
        raw = _minimal()
        raw["sim_model"] = {"get_task": 5}
        with pytest.raises(ConfigurationError, match="sim_model"):
            TaskSetDocument.load(raw)


class TestRoundTrip:
    def _rich_state(self):
        state = init(PolicyConfig(worker_count=2))
        gpu = state.hwaccel_decl("gpu")
        a = state.task_decl("a", TaskKind.PERIODIC, period=ms(10),
                            relative_deadline=ms(8), release_offset=ms(1))
        va = state.version_decl(a, wcet_estimate=ms(2), name="main")
        state.hwaccel_use(a, va, gpu)
        b = state.task_decl("b", TaskKind.GRAPH_NODE)
        state.version_decl(b, wcet_estimate=ms(1))
        from rtsched import channel_connect, channel_decl

        ch = channel_decl(state, "c", element_size=16, capacity=3)
        channel_connect(state, ch, a, b, push_count=2)
        return state

    def test_state_document_state_identity(self):
        doc = document_from_state(self._rich_state())
        rebuilt = doc.build_state()
        doc2 = document_from_state(rebuilt)
        assert doc.data == doc2.data
        assert doc.to_json() == doc2.to_json()

    def test_table_version_named_like_another_id(self):
        # version "0" is id 1; a name wins over an id, so the entry stays on it
        state = init(PolicyConfig(mapping_scheme=MappingScheme.OFFLINE, worker_count=1,
                                  preemptive=False))
        a = state.task_decl("a", TaskKind.PERIODIC, period=ms(10), virt_core_id=0)
        state.version_decl(a, wcet_estimate=ms(1), name="v0")
        one = state.version_decl(a, wcet_estimate=ms(2), name="0")
        state.table = ScheduleTable(ms(10))
        state.table.add(0, a, one, 0)
        doc = document_from_state(state)
        [entry] = doc.data["table"]["entries"]
        assert entry["version"] == "0"
        [back] = doc.build_state().table.cores[0]
        assert back.version_id == one == 1
        raw = _with(copy.deepcopy(doc.data), 0, "table", "entries", 0, "version")
        [by_id] = TaskSetDocument.load(raw).build_state().table.cores[0]
        assert by_id.version_id == 0  # an integer is an id

    def test_json_is_stable_and_sorted(self):
        doc = document_from_state(self._rich_state())
        text = doc.to_json()
        assert text == doc.to_json()
        assert json.loads(text)["config"]["worker_count"] == 2

    def test_save(self, tmp_path):
        p = tmp_path / "out.json"
        doc = document_from_state(self._rich_state())
        doc.save(p)
        assert load_document(p).data == doc.data

    def test_sim_model_round_trip(self):
        model = SimJobModel(
            exec_time={"a": ms(1)},
            get_task_cost=500,
            mode_schedule=[(ms(5), frozenset({"x"}))],
            pip_enabled=False,
        )
        doc = document_from_state(self._rich_state(), model)
        back = doc.sim_model()
        assert back.exec_time == {"a": ms(1)}
        assert back.get_task_cost == 500
        assert back.mode_schedule == [(ms(5), frozenset({"x"}))]
        assert back.pip_enabled is False

    def test_every_field_round_trips(self):
        cfg = PolicyConfig(
            mapping_scheme=MappingScheme.PARTITIONED,
            priority_assignment=PriorityAssignment.DM,
            preemptive=False,
            version_selection=VersionSelection.MODE,
            waiting_strategy=WaitingStrategy.SPIN,
            locking_strategy=LockingStrategy.LOCK_FREE,
            worker_count=3,
            clock_source=ClockSource.MONOTONIC_OS,
        )
        model = SimJobModel(
            exec_time={"a": {"dist": "uniform", "low": 1, "high": ms(1)}},
            get_task_cost=1,
            sched_scan_cost_per_task=2,
            sort_cost_per_element=3,
            context_switch_cost=4,
            activations=[(ms(5), "a"), (ms(7), "b")],
            mode_schedule=[(ms(9), frozenset({"night", "low"}))],
            execution_mode=frozenset({"day", "high"}),
            permission_mask=frozenset({"cam"}),
            battery_level=42.5,
            alpha=0.25,
            pip_enabled=False,
            body_ops={"a": [(0, "pop", "c", 1), (ms(1), "push", "d", 2)]},
        )
        for obj in (cfg, model):  # every field differs from its default
            assert all(
                getattr(obj, f.name) != getattr(type(obj)(), f.name)
                for f in dataclasses.fields(obj)
            )
        doc = document_from_state(init(cfg), model)
        back = TaskSetDocument.load(doc.to_json())
        assert back.config() == cfg
        assert back.sim_model() == model
        again = document_from_state(init(back.config()), back.sim_model())
        assert again.to_json() == doc.to_json()
