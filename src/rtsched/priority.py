"""Priority keys.

A key is a tuple compared lexicographically; smaller sorts first and means
higher priority.  Layout:

    (class, primary, task_id, job_seq)

class 0 is recurring work (periodic, sporadic, graph nodes), class 1 is
aperiodic background work, so recurring jobs always outrank aperiodic ones.
The primary ordinal depends on the assignment: period for RM, relative
deadline for DM, absolute deadline for EDF, the user ordinal for USER.
Aperiodic jobs use their activation instant as primary regardless of the
assignment, which makes them FIFO among themselves.  The trailing pair is
the deterministic tie-break.

`key_rule` is the one rule: it fixes a task's class and primary once, and
the scheduler builds each task's rule when a run starts.  `assign_priority`
applies it to a single job.  A task whose relative deadline equals its
period gets the same keys under DM as under RM (Leung & Whitehead, 1982),
which lets a sweep run such DM points as RM ones.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from .errors import ValidationError
from .model import PriorityAssignment, TaskDescriptor, TaskKind

CLASS_RECURRING = 0
CLASS_APERIODIC = 1


class PriorityKey(NamedTuple):
    klass: int
    primary: int
    task_id: int
    seq: int


_key = partial(tuple.__new__, PriorityKey)  # PriorityKey from a 4-tuple, without a Python frame


def key_rule(
    assignment: PriorityAssignment,
    task: TaskDescriptor,
    *,
    period: int | None = None,
    relative_deadline: int | None = None,
) -> Callable[[int, int, int], PriorityKey]:
    """The key of every job of `task`, as `rule(seq, abs_release, abs_deadline)`.

    period/relative_deadline override the task's own fields; the scheduler
    passes the root's values for graph-node jobs, whose timing is described
    at graph level.  Everything but the job's own instants and seq is fixed
    here, once.  A task the assignment cannot rank gets a rule that raises
    ValidationError when called, so only a task that releases a job fails:
    a graph node that never activates needs no period under RM.
    """
    tid = task.task_id
    if task.kind is TaskKind.APERIODIC:
        return lambda seq, abs_release, abs_deadline: _key(
            (CLASS_APERIODIC, abs_release, tid, seq))
    if assignment is PriorityAssignment.EDF:
        return lambda seq, abs_release, abs_deadline: _key(
            (CLASS_RECURRING, abs_deadline, tid, seq))
    if assignment is PriorityAssignment.RM:
        primary = period if period is not None else task.period
        missing = f"RM needs a period on task {task.name!r}"
    elif assignment is PriorityAssignment.DM:
        primary = relative_deadline if relative_deadline is not None else task.relative_deadline
        missing = f"DM needs a relative deadline on task {task.name!r}"
    else:  # USER
        primary = task.user_priority
        missing = f"USER priority missing on task {task.name!r}"
    if primary is None:
        def unranked(seq: int, abs_release: int, abs_deadline: int) -> PriorityKey:
            raise ValidationError(missing)

        return unranked
    return lambda seq, abs_release, abs_deadline: _key((CLASS_RECURRING, primary, tid, seq))


def assign_priority(
    assignment: PriorityAssignment,
    task: TaskDescriptor,
    *,
    seq: int,
    abs_release: int,
    abs_deadline: int,
    period: int | None = None,
    relative_deadline: int | None = None,
) -> PriorityKey:
    """Build the key for one job: `key_rule`'s rule applied to it."""
    rule = key_rule(assignment, task, period=period, relative_deadline=relative_deadline)
    return rule(seq, abs_release, abs_deadline)
