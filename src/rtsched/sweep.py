"""Design-space exploration: run one document under many policy points.

A sweep point is (mapping, priority, preemptive, version_mode); each point
runs `reps` times with seeds seed+0..reps-1 and every run contributes one
row group to a long-format CSV: (policy, mapping, priority, preemptive,
version_mode, rep, seed, metric, value).
"""

from __future__ import annotations

import csv
import functools
import threading
from dataclasses import dataclass, field, replace

from .document import (
    BOOL,
    INT,
    STRINGS,
    JsonType,
    TaskSetDocument,
    field_table,
    list_of,
    nullable,
    object_of,
    one_of,
    read_object,
)
from .errors import ConfigurationError, RtschedError
from .model import MappingScheme, PriorityAssignment
from .realtime import available_cpus
from .simulator import policy_label, run_simulation

SWEEP_COLUMNS = [
    "policy",
    "mapping",
    "priority",
    "preemptive",
    "version_mode",
    "rep",
    "seed",
    "metric",
    "value",
]

# metrics reported per run, in row order
RUN_METRICS = [
    "released",
    "completed",
    "misses",
    "mean_response_ns",
    "max_response_ns",
    "truncated",
]


@dataclass
class SweepSpec:
    """Axes of the exploration grid.

    version_modes maps a label to a list of version names a task may use
    in that mode, or None for no restriction.  A task with none of the
    named versions keeps its full set (restricting a task out of existence
    is never what an exploration means).
    """

    mappings: list[str] = field(default_factory=lambda: ["GLOBAL"])
    priorities: list[str] = field(default_factory=lambda: ["RM", "EDF"])
    preemptive: list[bool] = field(default_factory=lambda: [True, False])
    version_modes: dict[str, list[str] | None] = field(
        default_factory=lambda: {"any": None}
    )
    reps: int = 1
    horizon: int | str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        read_object(_SPEC, vars(self), "sweep")  # however the spec is made
        if self.reps < 1:
            raise ConfigurationError("reps must be >= 1")
        if not (self.mappings and self.priorities and self.preemptive
                and self.version_modes):
            raise ConfigurationError("sweep grid is empty")

    @classmethod
    def from_dict(cls, raw: dict) -> "SweepSpec":
        """A spec from the keys `raw` gives, read like a document section."""
        return cls(**read_object(_SPEC, raw, "sweep"))

    def points(self) -> int:
        return (
            len(self.mappings)
            * len(self.priorities)
            * len(self.preemptive)
            * len(self.version_modes)
        )


def _names(enum) -> JsonType:
    names = ", ".join(e.value for e in enum)
    return JsonType(f"a list of names among {names}", list_of(one_of(enum).ok))


_SPEC = field_table(SweepSpec, {
    "mappings": _names(MappingScheme),
    "priorities": _names(PriorityAssignment),
    "preemptive": JsonType("a list of booleans", list_of(BOOL.ok)),
    "version_modes": JsonType(
        "an object of string lists or nulls", object_of(nullable(STRINGS).ok)
    ),
    "horizon": JsonType(
        "an integer, a string or null",
        lambda v: v is None or isinstance(v, str) or INT.ok(v),
    ),
})


def make_restrict(state, names: list[str] | None):
    """Version filter by name, as the callable run_simulation expects.

    Tasks where the filter would leave nothing keep every version: a
    restriction expresses a preference, not a death sentence.
    """
    if names is None:
        return None
    wanted = set(names)
    allowed = {}
    for task in state.tasks:
        pool = [v for v in task.versions if v.name in wanted]
        if pool:
            allowed[task.task_id] = pool
    if not allowed:
        return None

    def restrict(task):
        return allowed.get(task.task_id, list(task.versions))

    return restrict


def _sweep_run(
    doc: TaskSetDocument,
    spec: SweepSpec,
    mapping: str,
    priority: str,
    preempt: bool,
    label: str,
    names: list[str] | None,
    rep: int,
) -> list[dict]:
    """The rows of one grid point's repetition `rep`."""
    seed = spec.seed + rep
    point = f"{mapping}/{priority}/preemptive={preempt}/{label}"
    try:
        config = replace(
            doc.config(),
            mapping_scheme=MappingScheme(mapping),
            priority_assignment=PriorityAssignment(priority),
            preemptive=preempt,
        )
        state = doc.build_state(config)
        _, report = run_simulation(
            state,
            doc.sim_model(),
            horizon=spec.horizon,
            seed=seed,
            restrict=make_restrict(state, names),
            keep_trace=False,
        )
    except RtschedError as e:
        raise RtschedError(f"sweep point {point} rep {rep}: {e}") from e
    resp_total = 0
    resp_count = 0
    resp_max = 0
    for st in report.tasks.values():
        resp_total += st.response.total
        resp_count += st.response.count
        resp_max = max(resp_max, st.response.max or 0)
    values = {
        "released": report.released,
        "completed": report.completed,
        "misses": report.misses,
        "mean_response_ns": (
            round(resp_total / resp_count, 3) if resp_count else 0
        ),
        "max_response_ns": resp_max,
        "truncated": int(report.truncated),
    }
    return [
        {
            "policy": policy_label(state.config),
            "mapping": mapping,
            "priority": priority,
            "preemptive": preempt,
            "version_mode": label,
            "rep": rep,
            "seed": seed,
            "metric": metric,
            "value": values[metric],
        }
        for metric in RUN_METRICS
    ]


def run_sweep(doc: TaskSetDocument, spec: SweepSpec) -> list[dict]:
    """Every grid point x repetition, deterministically ordered.

    Runs are spread over one worker process per usable CPU, forked from
    this one, and the rows come back in grid order however many workers
    ran them.  The sweep runs in this process instead when one worker
    would do, when the platform cannot fork, or when this process has
    other threads running, which a fork would copy in whatever state they
    hold.

    A point that fails to build or validate aborts the whole sweep and
    names the first such point in grid order; a clean grid with missed
    deadlines is a result, not an error.
    """
    runs = [
        (mapping, priority, preempt, label, names, rep)
        for mapping in spec.mappings
        for priority in spec.priorities
        for preempt in spec.preemptive
        for label, names in spec.version_modes.items()
        for rep in range(spec.reps)
    ]
    workers = min(available_cpus(), len(runs))
    run = functools.partial(_sweep_run, doc, spec)
    columns = zip(*runs)
    serial = workers <= 1 or threading.active_count() > 1
    if not serial:
        import multiprocessing

        serial = "fork" not in multiprocessing.get_all_start_methods()
    if serial:
        groups = list(map(run, *columns))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            chunk = max(1, len(runs) // (4 * workers))
            groups = list(pool.map(run, *columns, chunksize=chunk))
    return [row for group in groups for row in group]


def write_sweep_csv(rows: list[dict], fp) -> None:
    writer = csv.DictWriter(fp, fieldnames=SWEEP_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)


def best_policy(rows: list[dict]) -> dict | None:
    """Fewest total misses, ties broken by lowest mean response."""
    groups: dict[tuple, dict] = {}
    for row in rows:
        key = (row["mapping"], row["priority"], row["preemptive"], row["version_mode"])
        g = groups.setdefault(
            key,
            {"policy": row["policy"], "misses": 0, "resp_sum": 0.0, "resp_n": 0},
        )
        if row["metric"] == "misses":
            g["misses"] += row["value"]
        elif row["metric"] == "mean_response_ns":
            g["resp_sum"] += row["value"]
            g["resp_n"] += 1
    if not groups:
        return None
    scored = []
    for key in sorted(groups, key=repr):
        g = groups[key]
        mean = g["resp_sum"] / g["resp_n"] if g["resp_n"] else 0.0
        scored.append((g["misses"], mean, key, g["policy"]))
    misses, mean, key, label = min(scored, key=lambda s: (s[0], s[1], repr(s[2])))
    return {
        "policy": label,
        "mapping": key[0],
        "priority": key[1],
        "preemptive": key[2],
        "version_mode": key[3],
        "total_misses": misses,
        "mean_response_ns": mean,
    }
