"""JSON task-set documents: declare a whole run in one file.

A document carries the policy config, the declarations (tasks, versions,
accelerators, channels), an optional SDF section that expands into graph
nodes, an optional dispatch table, and an optional synthetic job model for
simulated runs.  Unknown keys are rejected everywhere: a typo in a policy
knob must fail loudly, not silently explore the wrong design point.

build_state() replays the document through the ordinary declaration API,
so file-driven runs hit exactly the same validation as code-driven ones.
USER priorities and USER version selection need Python callbacks and
therefore cannot be expressed in a document.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from pathlib import Path

from .errors import ConfigurationError
from .graph import SdfEdge, SdfGraph, channel_connect, channel_decl, expand_sdf
from .model import (
    BitmaskSelect,
    EnergySelect,
    EnergyTimeSelect,
    MiddlewareState,
    ModeSelect,
    PolicyConfig,
    TaskKind,
    VersionSelection,
    init,
)
from .offline import ScheduleTable
from .simulator import SimJobModel

_CONFIG_KEYS = {f.name for f in fields(PolicyConfig)}
_TASK_KEYS = {
    "name",
    "kind",
    "period",
    "relative_deadline",
    "release_offset",
    "virt_core_id",
    "user_priority",
}
_VERSION_KEYS = {"task", "name", "wcet_estimate", "accelerators", "select"}
_CHANNEL_KEYS = {"name", "element_size", "capacity", "initial_tokens"}
_CONNECTION_KEYS = {"channel", "src", "dst", "required_tokens", "push_count"}
_SDF_KEYS = {"period", "wcets", "edges", "relative_deadline", "release_offset", "virt_core_id"}
_SDF_EDGE_KEYS = {"src", "dst", "produce", "consume", "initial_tokens"}
_TABLE_KEYS = {"period", "entries"}
_TABLE_ENTRY_KEYS = {"core", "task", "version", "offset"}
_SIM_KEYS = {f.name for f in fields(SimJobModel)}
# sim_model fields whose structure the type of their default cannot convey
_SIM_CONVERTERS = {
    "activations": lambda v: [(int(t), str(n)) for t, n in v],
    "mode_schedule": lambda v: [(int(t), frozenset(m)) for t, m in v],
    "body_ops": lambda v: {
        task: [(int(o), str(op), str(ch), int(n)) for o, op, ch, n in ops]
        for task, ops in v.items()
    },
}
_TOP_KEYS = {
    "config",
    "accelerators",
    "tasks",
    "versions",
    "channels",
    "connections",
    "sdf",
    "table",
    "sim_model",
}


def _reject_unknown(d: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigurationError(f"unknown keys in {where}: {', '.join(unknown)}")


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigurationError(f"{where} is missing required key {key!r}")
    return d[key]


def _default(f):
    return f.default_factory() if f.default is MISSING else f.default


_EXPECTED = {bool: "a boolean", int: "an integer", float: "a number",
             frozenset: "a list of strings"}


def _json_typed(value, default) -> bool:
    """Whether a JSON value may fill a field whose default is `default`:
    a bool only a bool, an int only a non-bool int, a float an int or a
    float, a frozenset a list of strings; other fields take any value."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, (int, float)):
        return isinstance(value, (int, type(default))) and not isinstance(value, bool)
    if isinstance(default, frozenset):
        return isinstance(value, list) and all(isinstance(x, str) for x in value)
    return True


def _from_fields(cls, d: dict, converters: dict, where: str):
    """An instance of dataclass `cls` from the keys `d` gives.  A value
    must fit the type of its field's default (an enum takes one of its
    values; see _json_typed for the rest) and is converted to it; other
    fields keep the value as written unless `converters` names them.  A
    value that does not fit is a ConfigurationError naming `where`."""
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            continue
        value, default = d[f.name], _default(f)
        conv = converters.get(f.name)
        try:
            if conv is None and isinstance(default, (Enum, int, float, frozenset)):
                if not _json_typed(value, default):
                    raise ValueError(f"expected {_EXPECTED[type(default)]}, got {value!r}")
                conv = type(default)
            kwargs[f.name] = value if conv is None else conv(value)
        except (TypeError, ValueError) as e:
            raise ConfigurationError(f"bad {where} value: {f.name}: {e}") from None
    return cls(**kwargs)


def _jsonable(value):
    """A field value as JSON: enum -> value, frozenset -> sorted list,
    tuple -> list, recursively through lists and dicts."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class TaskSetDocument:
    """Parsed, key-checked document.  data holds the raw (valid) dict."""

    data: dict = field(default_factory=dict)

    # ----------------------------------------------------------- parse

    @classmethod
    def from_dict(cls, raw: dict) -> "TaskSetDocument":
        if not isinstance(raw, dict):
            raise ConfigurationError("document root must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "document root")
        cfg = raw.get("config", {})
        _reject_unknown(cfg, _CONFIG_KEYS, "config")
        for i, t in enumerate(raw.get("tasks", [])):
            _reject_unknown(t, _TASK_KEYS, f"tasks[{i}]")
            _require(t, "name", f"tasks[{i}]")
        for i, v in enumerate(raw.get("versions", [])):
            _reject_unknown(v, _VERSION_KEYS, f"versions[{i}]")
            _require(v, "task", f"versions[{i}]")
            _require(v, "wcet_estimate", f"versions[{i}]")
        for i, c in enumerate(raw.get("channels", [])):
            _reject_unknown(c, _CHANNEL_KEYS, f"channels[{i}]")
            _require(c, "name", f"channels[{i}]")
        for i, c in enumerate(raw.get("connections", [])):
            _reject_unknown(c, _CONNECTION_KEYS, f"connections[{i}]")
            for k in ("channel", "src", "dst"):
                _require(c, k, f"connections[{i}]")
        if "sdf" in raw:
            sdf = raw["sdf"]
            _reject_unknown(sdf, _SDF_KEYS, "sdf")
            _require(sdf, "period", "sdf")
            _require(sdf, "wcets", "sdf")
            for i, e in enumerate(sdf.get("edges", [])):
                _reject_unknown(e, _SDF_EDGE_KEYS, f"sdf.edges[{i}]")
        if "table" in raw:
            table = raw["table"]
            _reject_unknown(table, _TABLE_KEYS, "table")
            _require(table, "period", "table")
            for i, e in enumerate(table.get("entries", [])):
                _reject_unknown(e, _TABLE_ENTRY_KEYS, f"table.entries[{i}]")
                for k in ("core", "task", "version", "offset"):
                    _require(e, k, f"table.entries[{i}]")
        if "sim_model" in raw:
            _reject_unknown(raw["sim_model"], _SIM_KEYS, "sim_model")
        return cls(data=raw)

    @classmethod
    def load(cls, source) -> "TaskSetDocument":
        """Accept a dict, JSON text, a path, or an open file."""
        if isinstance(source, dict):
            return cls.from_dict(source)
        if isinstance(source, str) and source.lstrip().startswith(("{", "[")):
            text = source
        elif isinstance(source, (str, Path)):
            text = Path(source).read_text()
        else:
            text = source.read()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"not valid JSON: {e}") from None
        return cls.from_dict(raw)

    # ----------------------------------------------------------- build

    def config(self) -> PolicyConfig:
        return _from_fields(PolicyConfig, self.data.get("config", {}), {}, "config")

    def sdf_graph(self) -> SdfGraph | None:
        """The graph of the `sdf` section, or None when there is none."""
        if "sdf" not in self.data:
            return None
        s = self.data["sdf"]
        edges = [
            SdfEdge(
                src=e["src"],
                dst=e["dst"],
                produce=int(e.get("produce", 1)),
                consume=int(e.get("consume", 1)),
                initial_tokens=int(e.get("initial_tokens", 0)),
            )
            for e in s.get("edges", [])
        ]
        return SdfGraph(actors=sorted(s["wcets"]), edges=edges)

    def build_state(self) -> MiddlewareState:
        config = self.config()
        if config.version_selection is VersionSelection.USER:
            raise ConfigurationError(
                "USER version selection needs a Python callback; build the state in code"
            )
        state = init(config)
        accel_ids: dict[str, int] = {}
        for name in self.data.get("accelerators", []):
            accel_ids[name] = state.hwaccel_decl(name)
        task_ids: dict[str, int] = {}
        for t in self.data.get("tasks", []):
            task_ids[t["name"]] = state.task_decl(
                t["name"],
                TaskKind(t.get("kind", "periodic")),
                period=t.get("period"),
                relative_deadline=t.get("relative_deadline"),
                release_offset=t.get("release_offset", 0),
                virt_core_id=t.get("virt_core_id"),
                user_priority=t.get("user_priority"),
            )
        version_ids: dict[tuple[str, str], int] = {}
        for v in self.data.get("versions", []):
            tname = v["task"]
            if tname not in task_ids:
                raise ConfigurationError(f"version references unknown task {tname!r}")
            vid = state.version_decl(
                task_ids[tname],
                wcet_estimate=int(v["wcet_estimate"]),
                select=_select_from_dict(config.version_selection, v.get("select")),
                name=v.get("name", ""),
            )
            version_ids[(tname, state.task(task_ids[tname]).versions[vid].name)] = vid
            for aname in v.get("accelerators", []):
                if aname not in accel_ids:
                    raise ConfigurationError(
                        f"version references unknown accelerator {aname!r}"
                    )
                state.hwaccel_use(task_ids[tname], vid, accel_ids[aname])
        chan_ids: dict[str, int] = {}
        for c in self.data.get("channels", []):
            cid = channel_decl(
                state, c["name"], c.get("element_size", 0), c.get("capacity", 0)
            )
            state.channels[cid].initial_tokens = int(c.get("initial_tokens", 0))
            chan_ids[c["name"]] = cid
        for c in self.data.get("connections", []):
            for k in ("src", "dst"):
                if c[k] not in task_ids:
                    raise ConfigurationError(
                        f"connection references unknown task {c[k]!r}"
                    )
            if c["channel"] not in chan_ids:
                raise ConfigurationError(
                    f"connection references unknown channel {c['channel']!r}"
                )
            channel_connect(
                state,
                chan_ids[c["channel"]],
                task_ids[c["src"]],
                task_ids[c["dst"]],
                required_tokens=c.get("required_tokens"),
                push_count=c.get("push_count"),
            )
        sdf = self.sdf_graph()
        if sdf is not None:
            s = self.data["sdf"]
            expand_sdf(
                state,
                sdf,
                period=int(s["period"]),
                wcets={a: int(w) for a, w in s["wcets"].items()},
                relative_deadline=s.get("relative_deadline"),
                release_offset=s.get("release_offset", 0),
                virt_core_id=s.get("virt_core_id"),
            )
        if "table" in self.data:
            t = self.data["table"]
            table = ScheduleTable(table_period=int(t["period"]))
            for e in t.get("entries", []):
                if e["task"] not in task_ids:
                    raise ConfigurationError(
                        f"table entry references unknown task {e['task']!r}"
                    )
                task = state.task(task_ids[e["task"]])
                vid = None
                for v in task.versions:
                    if v.name == e["version"] or str(v.version_id) == str(e["version"]):
                        vid = v.version_id
                        break
                if vid is None:
                    raise ConfigurationError(
                        f"table entry references unknown version {e['version']!r}"
                        f" of task {e['task']!r}"
                    )
                table.add(int(e["core"]), task.task_id, vid, int(e["offset"]))
            state.table = table
        return state

    def sim_model(self) -> SimJobModel:
        return _from_fields(
            SimJobModel, self.data.get("sim_model", {}), _SIM_CONVERTERS, "sim_model"
        )

    # ------------------------------------------------------- serialize

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())


def _select_from_dict(method: VersionSelection, d: dict | None):
    if d is None:
        if method is VersionSelection.PRESELECTED:
            return None
        raise ConfigurationError(
            f"version selection {method.value} requires a select block on every version"
        )
    if method is VersionSelection.ENERGY:
        _reject_unknown(d, {"energy_budget"}, "select")
        return EnergySelect(energy_budget=float(_require(d, "energy_budget", "select")))
    if method is VersionSelection.ENERGY_TIME:
        _reject_unknown(d, {"energy_cost", "exec_time"}, "select")
        return EnergyTimeSelect(
            energy_cost=float(_require(d, "energy_cost", "select")),
            exec_time=int(_require(d, "exec_time", "select")),
        )
    if method is VersionSelection.MODE:
        _reject_unknown(d, {"mode_mask"}, "select")
        return ModeSelect(mode_mask=frozenset(_require(d, "mode_mask", "select")))
    if method is VersionSelection.BITMASK:
        _reject_unknown(d, {"permission_mask"}, "select")
        return BitmaskSelect(
            permission_mask=frozenset(_require(d, "permission_mask", "select"))
        )
    raise ConfigurationError(
        f"select block not allowed under {method.value} version selection"
    )


def _select_to_dict(select) -> dict | None:
    if select is None:
        return None
    if isinstance(select, EnergySelect):
        return {"energy_budget": select.energy_budget}
    if isinstance(select, EnergyTimeSelect):
        return {"energy_cost": select.energy_cost, "exec_time": select.exec_time}
    if isinstance(select, ModeSelect):
        return {"mode_mask": sorted(select.mode_mask)}
    if isinstance(select, BitmaskSelect):
        return {"permission_mask": sorted(select.permission_mask)}
    raise ConfigurationError("user-select callbacks cannot be serialized")


def document_from_state(
    state: MiddlewareState, model: SimJobModel | None = None
) -> TaskSetDocument:
    """Serialize declarations back into a document.

    Round trip: build_state() on the result reproduces an equivalent state.
    Entry callables are dropped (documents describe timing, not code)."""
    data: dict = {
        "config": {
            f.name: _jsonable(getattr(state.config, f.name))
            for f in fields(PolicyConfig)
        }
    }
    if state.accelerators:
        data["accelerators"] = [a.name for a in state.accelerators]
    tasks = []
    versions = []
    for t in state.tasks:
        entry: dict = {"name": t.name, "kind": t.kind.value}
        if t.period is not None:
            entry["period"] = t.period
        if t.relative_deadline is not None:
            entry["relative_deadline"] = t.relative_deadline
        if t.release_offset:
            entry["release_offset"] = t.release_offset
        if t.virt_core_id is not None:
            entry["virt_core_id"] = t.virt_core_id
        if t.user_priority is not None:
            entry["user_priority"] = t.user_priority
        tasks.append(entry)
        for v in t.versions:
            ventry: dict = {
                "task": t.name,
                "name": v.name,
                "wcet_estimate": v.wcet_estimate,
            }
            if v.accelerators:
                ventry["accelerators"] = sorted(
                    state.accelerators[a].name for a in v.accelerators
                )
            sel = _select_to_dict(v.select_props)
            if sel is not None:
                ventry["select"] = sel
            versions.append(ventry)
    if tasks:
        data["tasks"] = tasks
    if versions:
        data["versions"] = versions
    if state.channels:
        channels = []
        connections = []
        for c in state.channels:
            centry: dict = {"name": c.name, "element_size": c.element_size,
                            "capacity": c.capacity}
            if c.initial_tokens:
                centry["initial_tokens"] = c.initial_tokens
            channels.append(centry)
            if c.src is not None:
                conn: dict = {
                    "channel": c.name,
                    "src": state.tasks[c.src].name,
                    "dst": state.tasks[c.dst].name,
                }
                req = state.activation_overrides.get((c.dst, c.channel_id))
                if req is not None:
                    conn["required_tokens"] = req
                pc = state.push_counts.get((c.src, c.channel_id))
                if pc is not None:
                    conn["push_count"] = pc
                connections.append(conn)
        data["channels"] = channels
        if connections:
            data["connections"] = connections
    if state.table is not None:
        entries = []
        for core in sorted(state.table.cores):
            for e in state.table.cores[core]:
                task = state.tasks[e.task_id]
                entries.append(
                    {
                        "core": core,
                        "task": task.name,
                        "version": task.versions[e.version_id].name,
                        "offset": e.release_offset,
                    }
                )
        data["table"] = {"period": state.table.table_period, "entries": entries}
    if model is not None:
        sim = {
            f.name: _jsonable(getattr(model, f.name))
            for f in fields(SimJobModel)
            if getattr(model, f.name) != _default(f)
        }
        if sim:
            data["sim_model"] = sim
    return TaskSetDocument.from_dict(data)


def load_document(source) -> TaskSetDocument:
    return TaskSetDocument.load(source)
