"""Static dispatch tables for the off-line mapping.

A table repeats with a fixed period.  Each core owns an ordered entry list
(task, version, release offset); iteration m starts entry e at exactly
m * period + offset.  There is no ready queue, no preemption and no version
selection at run time, and cores proceed independently.

Validation rejects dangling references and ordering violations outright;
a worst-case execution overlap between consecutive entries is only a
warning, because the table author may know better than the estimates.
OFFLINE does not arbitrate accelerators at run time: an entry starts at its
instant whoever holds its version's accelerators, so entries on different
cores whose worst-case windows meet on one accelerator are a warning too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .model import Diagnostic, MiddlewareState, VersionDescriptor
from .online import Job


@dataclass(frozen=True)
class TableEntry:
    task_id: int
    version_id: int
    release_offset: int


@dataclass
class ScheduleTable:
    table_period: int
    cores: dict[int, list[TableEntry]] = field(default_factory=dict)

    def add(self, core: int, task_id: int, version_id: int, release_offset: int) -> None:
        self.cores.setdefault(core, []).append(
            TableEntry(task_id, version_id, release_offset)
        )


def table_jobs(state: MiddlewareState, core: int) -> Iterator[tuple[int, Job]]:
    """The jobs one core's table entries release, iteration after iteration,
    as (release instant, job) pairs in dispatch order.

    Job sequence numbers count per task on this core.  A task without a
    relative deadline must finish by the end of its table iteration.
    """
    table: ScheduleTable = state.table
    entries = table.cores[core]
    if not entries:
        return
    seqs: dict[int, int] = {}
    for m in itertools.count():
        for entry in entries:
            release = m * table.table_period + entry.release_offset
            task = state.tasks[entry.task_id]
            seq = seqs.get(entry.task_id, 0)
            seqs[entry.task_id] = seq + 1
            if task.relative_deadline is not None:
                deadline = release + task.relative_deadline
            else:
                deadline = (m + 1) * table.table_period
            yield release, Job(task, seq, task.versions[entry.version_id], release,
                               deadline, key=None)


def validate_table(state: MiddlewareState, table: ScheduleTable) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    err = lambda code, msg: out.append(Diagnostic("error", code, msg))
    warn = lambda code, msg: out.append(Diagnostic("warning", code, msg))

    if table.table_period <= 0:
        err("table-period", "table period must be > 0")
        return out

    bound: list[tuple[int, TableEntry, VersionDescriptor]] = []  # uses accelerators
    for core in sorted(table.cores):
        entries = table.cores[core]
        if not 0 <= core < state.config.worker_count:
            err("table-core", f"table core {core} out of range")
            continue
        prev: TableEntry | None = None
        for i, e in enumerate(entries):
            if not 0 <= e.task_id < len(state.tasks):
                err("table-task", f"core {core} entry {i}: unknown task {e.task_id}")
                continue
            task = state.tasks[e.task_id]
            if not 0 <= e.version_id < len(task.versions):
                err(
                    "table-version",
                    f"core {core} entry {i}: task {task.name!r} has no version"
                    f" {e.version_id}",
                )
                continue
            version = task.versions[e.version_id]
            if version.accelerators:
                bound.append((core, e, version))
            if not 0 <= e.release_offset < table.table_period:
                err(
                    "table-offset",
                    f"core {core} entry {i}: offset {e.release_offset} outside"
                    f" [0, {table.table_period})",
                )
            if task.virt_core_id is not None and task.virt_core_id != core:
                err(
                    "table-placement",
                    f"core {core} entry {i}: task {task.name!r} is declared for"
                    f" core {task.virt_core_id}",
                )
            if prev is not None:
                if e.release_offset < prev.release_offset:
                    err(
                        "table-order",
                        f"core {core} entry {i}: offsets must be non-decreasing",
                    )
                else:
                    ptask = state.tasks[prev.task_id]
                    if 0 <= prev.version_id < len(ptask.versions):
                        wcet = ptask.versions[prev.version_id].wcet_estimate
                        if prev.release_offset + wcet > e.release_offset:
                            warn(
                                "table-overlap",
                                f"core {core}: entry at {prev.release_offset} may"
                                f" still run when entry at {e.release_offset} is due",
                            )
            prev = e
        if prev is not None and 0 <= prev.task_id < len(state.tasks):
            task = state.tasks[prev.task_id]
            if 0 <= prev.version_id < len(task.versions):
                wcet = task.versions[prev.version_id].wcet_estimate
                if prev.release_offset + wcet > table.table_period:
                    warn(
                        "table-overlap",
                        f"core {core}: last entry may run into the next table"
                        " iteration",
                    )
    for (c1, e1, v1), (c2, e2, v2) in itertools.combinations(bound, 2):
        shared = v1.accelerators & v2.accelerators
        if c1 != c2 and shared and _windows_meet(
            e1.release_offset, v1.wcet_estimate, e2.release_offset, v2.wcet_estimate,
            table.table_period,
        ):
            names = ", ".join(state.accelerators[a].name for a in sorted(shared))
            warn(
                "table-accelerator",
                f"core {c1} entry at {e1.release_offset} and core {c2} entry at"
                f" {e2.release_offset} may use {names} at once; OFFLINE does not"
                " arbitrate accelerators",
            )
    return out


def _windows_meet(a: int, len_a: int, b: int, len_b: int, period: int) -> bool:
    """Whether [a, a + len_a) and [b, b + len_b) intersect modulo period;
    both lengths are > 0 (version_decl rejects a zero wcet)."""
    return (b - a) % period < len_a or (a - b) % period < len_b
