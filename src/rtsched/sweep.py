"""Design-space exploration: run one document under many policy points.

A sweep point is (mapping, priority, preemptive, version_mode); each point
runs `reps` times with seeds seed+0..reps-1 and every run contributes one
row group to a long-format CSV: (policy, mapping, priority, preemptive,
version_mode, rep, seed, metric, value).  Runs that make the same schedule
are simulated once and share their values (run_sweep).
"""

from __future__ import annotations

import csv
import functools
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace
from typing import Callable

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
from .graph import analyze_graph
from .model import MappingScheme, PriorityAssignment, TaskKind
from .online import release_timing
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


def _run_keys(doc: TaskSetDocument, spec: SweepSpec, runs: list[tuple]) -> list:
    """The key of each of `runs`: runs with equal keys simulate the same run.

    A key is the run's mapping, priority, preemption flag, rep and each
    task's version pool (make_restrict, so a mode naming no version equals
    null), computed once from one state built under GLOBAL, the mapping
    that asks least of a document.  DM is keyed as RM when every task but
    the aperiodic ones has a relative deadline equal to its period, with
    the timing the scheduler gives graph nodes (online.release_timing): DM
    then ranks every job as RM does (priority.key_rule).  A run of a
    document that does not build shares with none.
    """
    try:
        state = doc.build_state(replace(doc.config(), mapping_scheme=MappingScheme.GLOBAL))
        graph = analyze_graph(state)
    except RtschedError:
        return list(range(len(runs)))
    timing = (release_timing(state, graph, task) for task in state.tasks
              if task.kind is not TaskKind.APERIODIC)
    implicit = all(period == deadline for _, period, deadline in timing)
    pools = {}
    for label, names in spec.version_modes.items():
        restrict = make_restrict(state, names)
        pools[label] = None if restrict is None else tuple(
            tuple(v.version_id for v in restrict(task)) for task in state.tasks
        )
    return [
        (mapping, "RM" if implicit and priority == "DM" else priority,
         preempt, rep, pools[label])
        for mapping, priority, preempt, label, _, rep in runs
    ]


def _sweep_run(
    doc: TaskSetDocument,
    spec: SweepSpec,
    mapping: str,
    priority: str,
    preempt: bool,
    label: str,
    names: list[str] | None,
    rep: int,
) -> dict:
    """The metric values of one grid point's repetition `rep`."""
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
    return {
        "released": report.released,
        "completed": report.completed,
        "misses": report.misses,
        "mean_response_ns": (
            round(resp_total / resp_count, 3) if resp_count else 0
        ),
        "max_response_ns": resp_max,
        "truncated": int(report.truncated),
    }


def _run_share(run: Callable, share: list[tuple]) -> tuple[list, Exception | None]:
    """run(*args) for each of `share` in order, up to the first that
    raises: the results before it, and its exception or None."""
    results = []
    for args in share:
        try:
            results.append(run(*args))
        except Exception as e:  # the caller ranks it against other shares'
            return results, e
    return results, None


def _serve_share(run: Callable, share: list[tuple], out) -> None:
    """In a forked child: write the pickled _run_share of `share` to
    `out` and leave.  os._exit runs no atexit handler and flushes no stdio
    buffer the child inherited, so those act once, in the parent; a child
    that dies before writing shows as a nonzero status."""
    status = 1
    try:
        out.write(pickle.dumps(_run_share(run, share)))
        out.flush()
        status = 0
    finally:
        os._exit(status)


def _run_shares(run: Callable, runs: list[tuple], shares: int) -> list:
    """run(*args) for every args of `runs`, the results in the order of
    `runs`.  Share i is runs[i::shares]: this process runs share 0 and one
    forked child runs each other share, so with one share nothing forks.

    Each share stops at its first failing run, and the exception of the
    failing run that comes first in `runs` is raised, so a failure in
    share 0 still waits for the other shares.  Every child is reaped
    before this returns or raises; one still running when an interrupt or
    a dead child ends the wait is killed first.
    """
    children = {}  # pid -> read end of its pipe
    try:
        for i in range(1, shares):
            r, w = os.pipe()
            reader = open(r, "rb")
            with open(w, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _serve_share(run, runs[i::shares], writer)
            children[pid] = reader
        outcomes = [_run_share(run, runs[::shares])]
        for pid in list(children):
            with children[pid] as reader:
                data = reader.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                raise RtschedError(
                    f"sweep worker exited with status {code} before sending its rows"
                )
            outcomes.append(pickle.loads(data))
    finally:
        for pid, reader in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reader.close()
    # share i's k-th run is run i + k * shares
    failures = [
        (i + len(done) * shares, exc)
        for i, (done, exc) in enumerate(outcomes)
        if exc is not None
    ]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    merged: list = [None] * len(runs)
    for i, (done, _) in enumerate(outcomes):
        merged[i::shares] = done
    return merged


def run_sweep(doc: TaskSetDocument, spec: SweepSpec) -> list[dict]:
    """Every grid point x repetition, deterministically ordered.

    Each distinct run is simulated once.  Runs whose keys (_run_keys) are
    equal have the same inputs but their labels: DM is keyed as RM when
    every non-aperiodic deadline equals its period, and a version mode
    naming no version restricts nothing.  The first run in grid order with
    a key is its representative, whatever its outcome, and every run of
    the key takes the representative's values with its own policy,
    priority, version_mode, rep and seed, so the rows equal those of
    simulating each point on its own.

    The distinct runs are split into one interleaved share per usable CPU:
    this process runs the first share and a child forked from it runs each
    other one, and the rows come back in grid order however many shares
    ran them, so the CSV is the same for any CPU count.  Everything runs
    in this process instead when one share would do (one usable CPU or a
    single distinct run), when the platform cannot fork, or when this
    process has other threads running, which a fork would copy in whatever
    state they hold.

    A point that fails to build or validate aborts the whole sweep and
    names the first such point in grid order (a failing representative is
    the first of its key); a clean grid with missed deadlines is a result,
    not an error.
    """
    runs = [
        (mapping, priority, preempt, label, names, rep)
        for mapping in spec.mappings
        for priority in spec.priorities
        for preempt in spec.preemptive
        for label, names in spec.version_modes.items()
        for rep in range(spec.reps)
    ]
    first: dict = {}  # key -> index in `distinct` of its representative
    distinct = []
    simulated = []  # index in `distinct` of each run's representative
    for args, key in zip(runs, _run_keys(doc, spec, runs)):
        if key not in first:
            first[key] = len(distinct)
            distinct.append(args)
        simulated.append(first[key])
    shares = min(available_cpus(), len(distinct))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        shares = 1
    values = _run_shares(functools.partial(_sweep_run, doc, spec), distinct, shares)
    base = doc.config()
    rows = []
    for (mapping, priority, preempt, label, _, rep), i in zip(runs, simulated):
        policy = policy_label(replace(
            base,
            mapping_scheme=MappingScheme(mapping),
            priority_assignment=PriorityAssignment(priority),
        ))
        rows.extend(
            {
                "policy": policy,
                "mapping": mapping,
                "priority": priority,
                "preemptive": preempt,
                "version_mode": label,
                "rep": rep,
                "seed": spec.seed + rep,
                "metric": metric,
                "value": values[i][metric],
            }
            for metric in RUN_METRICS
        )
    return rows


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
