"""JSON task-set documents: declare a whole run in one file.

A document carries the policy config, the declarations (tasks, versions,
accelerators, channels), an optional SDF section that expands into graph
nodes, an optional dispatch table, and an optional synthetic job model for
simulated runs.

One reader, read_object, reads every section from a table that gives each
key its JSON type and its default (a required key has none), and the sweep
spec (rtsched.sweep) is read the same way.  The type rule is the same
everywhere: a bool takes only true/false, an integer only an integer, a
number an integer or a decimal, a string only a string, a set a list of
strings, an enum one of its values, and a key whose default is null also
takes null.  An unknown key, a missing required key or a value of the
wrong JSON type is a ConfigurationError raised when the document loads,
naming the entry and the key: `bad tasks[0] value: period: expected an
integer or null, got '10'`.  The tables of `config` and `sim_model` are
derived from the fields of PolicyConfig and SimJobModel.

document_from_state writes a state back through the same tables.  A key
is written when its value differs from the key's default; all of
`config`, a task's kind, a version's name and a channel's element_size
and capacity are always written, and an empty section is left out.

build_state() replays the checked values through the ordinary declaration
API, so file-driven runs hit exactly the same validation as code-driven
ones.  USER version selection needs a Python callback and therefore cannot
be expressed in a document.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, NamedTuple

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

# ------------------------------------------------------------ the reader

REQUIRED = object()  # the default of a key an object must give


class JsonType(NamedTuple):
    """A JSON value type: what it expects in words, whether a value is one,
    and how an accepted value becomes the value the program uses."""

    expected: str
    ok: Callable[[Any], bool]
    convert: Callable[[Any], Any] | None = None


def read_object(table: dict, d, where: str) -> dict:
    """The values of JSON object `d`, one per key of `table` (key ->
    (JsonType, default)): each given value checked and converted, each
    absent one its default (a default may be a function that makes it)."""
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    if not table.keys() >= d.keys():
        unknown = ", ".join(sorted(d.keys() - table.keys()))
        raise ConfigurationError(f"unknown keys in {where}: {unknown}")
    out = {}
    for key, ((expected, ok, convert), default) in table.items():
        if key in d:
            value = d[key]
            if not ok(value):
                got = repr(value)  # cut short: a bad list may hold a whole task set
                got = got if len(got) <= 80 else got[:76] + " ..."
                raise ConfigurationError(
                    f"bad {where} value: {key}: expected {expected}, got {got}"
                )
            out[key] = value if convert is None else convert(value)
        elif default is REQUIRED:
            raise ConfigurationError(f"{where} is missing required key {key!r}")
        else:
            out[key] = default() if callable(default) else default
    return out


def list_of(ok: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, list) and all(ok(x) for x in v)


def object_of(ok: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, dict) and all(ok(x) for x in v.values())


def _rows(*cols: Callable[[Any], bool]) -> Callable[[Any], bool]:
    """A list of lists of len(cols) items, item i passing cols[i]."""
    return list_of(
        lambda r: isinstance(r, list) and len(r) == len(cols)
        and all(ok(x) for ok, x in zip(cols, r))
    )


STRING = JsonType("a string", lambda v: isinstance(v, str))
INT = JsonType("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
NUMBER = JsonType("a number", lambda v: INT.ok(v) or isinstance(v, float), float)
BOOL = JsonType("a boolean", lambda v: isinstance(v, bool))
OBJECT = JsonType("an object", lambda v: isinstance(v, dict))
STRINGS = JsonType("a list of strings", list_of(STRING.ok))
STRING_SET = STRINGS._replace(convert=frozenset)


def nullable(t: JsonType) -> JsonType:
    convert = t.convert and (lambda v: None if v is None else t.convert(v))
    return JsonType(f"{t.expected} or null", lambda v: v is None or t.ok(v), convert)


def one_of(enum: type[Enum]) -> JsonType:
    values = [e.value for e in enum]
    return JsonType(
        f"one of {', '.join(values)}", lambda v: isinstance(v, str) and v in values, enum
    )


def _section(table: dict, where: str, make: Callable | None = None) -> JsonType:
    """An object read by `table`, made into make(**values) when given."""
    def read(v):
        values = read_object(table, v, where)
        return values if make is None else make(**values)

    return JsonType("an object", OBJECT.ok, read)


def _sections(table: dict, where: str, make: Callable | None = None) -> JsonType:
    """A list of objects, item i read by `table` as `where[i]`."""
    def read(v):
        items = [read_object(table, x, f"{where}[{i}]") for i, x in enumerate(v)]
        return items if make is None else [make(**x) for x in items]

    return JsonType("a list of objects", list_of(OBJECT.ok), read)


_BY_DEFAULT = {bool: BOOL, int: INT, float: NUMBER, frozenset: STRING_SET}


def field_table(cls, types: dict[str, JsonType]) -> dict:
    """The table of dataclass `cls`: a key per field with the field's
    default, typed by `types` or else by the type of that default."""
    table = {}
    for f in fields(cls):
        default = f.default_factory if f.default is MISSING else f.default
        typ = types.get(f.name) or (
            one_of(type(default)) if isinstance(default, Enum) else _BY_DEFAULT[type(default)]
        )
        table[f.name] = (typ, default)
    return table


# ------------------------------------------------------------ the tables

_OPT_INT = nullable(INT)

_CONFIG = field_table(PolicyConfig, {})
_SIM = field_table(SimJobModel, {
    "exec_time": OBJECT,
    "activations": JsonType(
        "a list of [time, task] pairs", _rows(INT.ok, STRING.ok),
        lambda v: [tuple(p) for p in v],
    ),
    "mode_schedule": JsonType(
        "a list of [time, modes] pairs", _rows(INT.ok, STRINGS.ok),
        lambda v: [(t, frozenset(m)) for t, m in v],
    ),
    "battery_level": nullable(NUMBER),
    "body_ops": JsonType(
        "an object of [offset, op, channel, count] lists",
        object_of(_rows(INT.ok, STRING.ok, STRING.ok, INT.ok)),
        lambda v: {task: [tuple(op) for op in ops] for task, ops in v.items()},
    ),
})
_TASK = {
    "name": (STRING, REQUIRED),
    "kind": (one_of(TaskKind), TaskKind.PERIODIC),
    "period": (_OPT_INT, None),
    "relative_deadline": (_OPT_INT, None),
    "release_offset": (INT, 0),
    "virt_core_id": (_OPT_INT, None),
    "user_priority": (_OPT_INT, None),
}
_VERSION = {
    "task": (STRING, REQUIRED),
    "name": (STRING, ""),
    "wcet_estimate": (INT, REQUIRED),
    "accelerators": (STRINGS, ()),
    "select": (nullable(OBJECT), None),  # read by _SELECT under the config's method
}
# select props class and table per version selection method
_SELECT = {
    VersionSelection.ENERGY: (EnergySelect, {"energy_budget": (NUMBER, REQUIRED)}),
    VersionSelection.ENERGY_TIME: (
        EnergyTimeSelect,
        {"energy_cost": (NUMBER, REQUIRED), "exec_time": (INT, REQUIRED)},
    ),
    VersionSelection.MODE: (ModeSelect, {"mode_mask": (STRING_SET, REQUIRED)}),
    VersionSelection.BITMASK: (BitmaskSelect, {"permission_mask": (STRING_SET, REQUIRED)}),
}
_CHANNEL = {
    "name": (STRING, REQUIRED),
    "element_size": (INT, 0),
    "capacity": (INT, 0),
    "initial_tokens": (INT, 0),
}
_CONNECTION = {
    "channel": (STRING, REQUIRED),
    "src": (STRING, REQUIRED),
    "dst": (STRING, REQUIRED),
    "required_tokens": (_OPT_INT, None),
    "push_count": (_OPT_INT, None),
}
_SDF_EDGE = {
    "src": (STRING, REQUIRED),
    "dst": (STRING, REQUIRED),
    "produce": (INT, 1),
    "consume": (INT, 1),
    "initial_tokens": (INT, 0),
}
# every key but edges is an expand_sdf argument
_SDF = {
    "period": (INT, REQUIRED),
    "wcets": (JsonType("an object of integers", object_of(INT.ok)), REQUIRED),
    "edges": (_sections(_SDF_EDGE, "sdf.edges", SdfEdge), ()),
    "relative_deadline": (_OPT_INT, None),
    "release_offset": (INT, 0),
    "virt_core_id": (_OPT_INT, None),
}
_TABLE_ENTRY = {
    "core": (INT, REQUIRED),
    "task": (STRING, REQUIRED),
    # a version name, or its id as an integer or a decimal string
    "version": (
        JsonType("a string or an integer", lambda v: STRING.ok(v) or INT.ok(v)), REQUIRED
    ),
    "offset": (INT, REQUIRED),
}
_TABLE = {
    "period": (INT, REQUIRED),
    "entries": (_sections(_TABLE_ENTRY, "table.entries"), ()),
}
_ROOT = {
    "config": (_section(_CONFIG, "config", PolicyConfig), PolicyConfig),
    "accelerators": (STRINGS, ()),
    "tasks": (_sections(_TASK, "tasks"), ()),
    "versions": (_sections(_VERSION, "versions"), ()),
    "channels": (_sections(_CHANNEL, "channels"), ()),
    "connections": (_sections(_CONNECTION, "connections"), ()),
    "sdf": (_section(_SDF, "sdf"), None),
    "table": (_section(_TABLE, "table"), None),
    "sim_model": (_section(_SIM, "sim_model", SimJobModel), SimJobModel),
}


def _read_select(method: VersionSelection, block: dict | None, where: str):
    """The select props of a version's `select` block under `method`."""
    props_table = _SELECT.get(method)  # None under PRESELECTED and USER
    if block is None:
        if props_table is None:
            return None  # build_state refuses USER before reading versions
        raise ConfigurationError(
            f"{where}: version selection {method.value} requires a select block"
            " on every version"
        )
    if props_table is None:
        raise ConfigurationError(
            f"{where}: select block not allowed under {method.value} version selection"
        )
    props, table = props_table
    return props(**read_object(table, block, f"{where}.select"))


def _ref(ids: dict[str, int], name: str, what: str) -> int:
    """The id `ids` gives `name`; `what` names the referrer and the kind."""
    if name not in ids:
        raise ConfigurationError(f"{what} {name!r}")
    return ids[name]


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
    """A document read and checked when made.  data holds it as written."""

    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        doc = read_object(_ROOT, self.data, "document root")
        method = doc["config"].version_selection
        for i, v in enumerate(doc["versions"]):
            v["select"] = _read_select(method, v["select"], f"versions[{i}]")
        self._doc = doc

    # ----------------------------------------------------------- parse

    @classmethod
    def from_dict(cls, raw: dict) -> "TaskSetDocument":
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
        return replace(self._doc["config"])

    def sim_model(self) -> SimJobModel:
        return replace(self._doc["sim_model"])

    def sdf_graph(self) -> SdfGraph | None:
        """The graph of the `sdf` section, or None when there is none."""
        s = self._doc["sdf"]
        if s is None:
            return None
        return SdfGraph(actors=sorted(s["wcets"]), edges=list(s["edges"]))

    def build_state(self, config: PolicyConfig | None = None) -> MiddlewareState:
        """A new state declaring the document, under `config` when given
        (a sweep point's policy) and the document's own otherwise."""
        doc = self._doc
        config = self.config() if config is None else config
        if config.version_selection is VersionSelection.USER:
            raise ConfigurationError(
                "USER version selection needs a Python callback; build the state in code"
            )
        state = init(config)
        accel_ids = {name: state.hwaccel_decl(name) for name in doc["accelerators"]}
        task_ids = {t["name"]: state.task_decl(**t) for t in doc["tasks"]}
        for v in doc["versions"]:
            tid = _ref(task_ids, v["task"], "version references unknown task")
            vid = state.version_decl(
                tid, wcet_estimate=v["wcet_estimate"], select=v["select"], name=v["name"]
            )
            for aname in v["accelerators"]:
                accel = _ref(accel_ids, aname, "version references unknown accelerator")
                state.hwaccel_use(tid, vid, accel)
        chan_ids: dict[str, int] = {}
        for c in doc["channels"]:
            cid = channel_decl(state, c["name"], c["element_size"], c["capacity"])
            state.channels[cid].initial_tokens = c["initial_tokens"]
            chan_ids[c["name"]] = cid
        for c in doc["connections"]:
            src, dst = (_ref(task_ids, c[k], "connection references unknown task")
                        for k in ("src", "dst"))
            channel_connect(
                state,
                _ref(chan_ids, c["channel"], "connection references unknown channel"),
                src,
                dst,
                required_tokens=c["required_tokens"],
                push_count=c["push_count"],
            )
        if doc["sdf"] is not None:
            args = {k: v for k, v in doc["sdf"].items() if k != "edges"}
            expand_sdf(state, self.sdf_graph(), **args)
        if doc["table"] is not None:
            table = ScheduleTable(table_period=doc["table"]["period"])
            for e in doc["table"]["entries"]:
                tid = _ref(task_ids, e["task"], "table entry references unknown task")
                task = state.task(tid)
                # a name wins over an id: version "0" may be another one's name
                by_name = {v.name: v.version_id for v in task.versions}
                by_id = {str(v.version_id): v.version_id for v in task.versions}
                vid = by_name.get(e["version"], by_id.get(str(e["version"])))
                if vid is None:
                    raise ConfigurationError(
                        f"table entry references unknown version {e['version']!r}"
                        f" of task {e['task']!r}"
                    )
                table.add(e["core"], task.task_id, vid, e["offset"])
            state.table = table
        return state

    # ------------------------------------------------------- serialize

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())


# ------------------------------------------------------------ the writer


def _write(table: dict, obj=None, always=(), **given) -> dict:
    """The JSON object that `table` reads back as `obj`: each key's value is
    given[key], else obj's attribute of that name, and is written when its
    JSON differs from the JSON of the key's default or the key is in
    `always`."""
    out = {}
    for key, (_, default) in table.items():
        value = _jsonable(given[key] if key in given else getattr(obj, key))
        if key in always or value != _jsonable(default() if callable(default) else default):
            out[key] = value
    return out


def _select_to_dict(select) -> dict | None:
    if select is None:
        return None
    for props, table in _SELECT.values():
        if isinstance(select, props):
            return _write(table, select)
    raise ConfigurationError("user-select callbacks cannot be serialized")


def document_from_state(
    state: MiddlewareState, model: SimJobModel | None = None
) -> TaskSetDocument:
    """Serialize declarations back into a document.

    Round trip: build_state() on the result reproduces an equivalent state.
    Entry callables are dropped (documents describe timing, not code)."""
    tasks, table = state.tasks, state.table
    root = {
        "config": _write(_CONFIG, state.config, always=_CONFIG),
        "accelerators": [a.name for a in state.accelerators],
        "tasks": [_write(_TASK, t, always=("kind",)) for t in tasks],
        "versions": [
            _write(_VERSION, v, always=("name",), task=t.name,
                   accelerators=sorted(state.accelerators[a].name for a in v.accelerators),
                   select=_select_to_dict(v.select_props))
            for t in tasks for v in t.versions
        ],
        "channels": [
            _write(_CHANNEL, c, always=("element_size", "capacity")) for c in state.channels
        ],
        "connections": [
            _write(_CONNECTION, c, channel=c.name, src=tasks[c.src].name, dst=tasks[c.dst].name)
            for c in state.channels if c.src is not None
        ],
        "table": None if table is None else _write(
            _TABLE, always=_TABLE, period=table.table_period, entries=[
                _write(_TABLE_ENTRY, core=core, task=tasks[e.task_id].name,
                       version=tasks[e.task_id].versions[e.version_id].name,
                       offset=e.release_offset)
                for core in sorted(table.cores) for e in table.cores[core]
            ]),
        "sim_model": {} if model is None else _write(_SIM, model),
    }
    # a section is left out when empty, as the reader's default for it
    return TaskSetDocument.from_dict({key: value for key, value in root.items() if value})


def load_document(source) -> TaskSetDocument:
    return TaskSetDocument.load(source)
