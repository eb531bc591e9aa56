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

`key_basis` fixes a task's class and primary once, and `key_rule` is the
one rule built from it: the scheduler builds each task's rule when a run
starts.  `assign_priority` applies it to a single job.
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


# a basis primary taken from each job rather than fixed per task
RELEASE = "release"
DEADLINE = "deadline"

_UNRANKED = {
    PriorityAssignment.RM: "RM needs a period on task {!r}",
    PriorityAssignment.DM: "DM needs a relative deadline on task {!r}",
    PriorityAssignment.USER: "USER priority missing on task {!r}",
}


def key_basis(
    assignment: PriorityAssignment,
    task: TaskDescriptor,
    *,
    period: int | None = None,
    relative_deadline: int | None = None,
) -> tuple[int, int | str | None]:
    """(class, primary): the part of every key of `task` fixed per task.

    primary is a constant, RELEASE or DEADLINE for the job's absolute
    release or deadline, or None when the assignment cannot rank the task.
    period/relative_deadline override the task's own fields as in
    `key_rule`.  Two tasks' jobs with equal bases get equal keys, so
    deadline-monotonic priority equals rate-monotonic priority (Leung &
    Whitehead, 1982) wherever each relative deadline equals its period.
    """
    if task.kind is TaskKind.APERIODIC:
        return CLASS_APERIODIC, RELEASE
    if assignment is PriorityAssignment.EDF:
        return CLASS_RECURRING, DEADLINE
    if assignment is PriorityAssignment.RM:
        primary = period if period is not None else task.period
    elif assignment is PriorityAssignment.DM:
        primary = relative_deadline if relative_deadline is not None else task.relative_deadline
    else:  # USER
        primary = task.user_priority
    return CLASS_RECURRING, primary


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
    at graph level.  The rule is `key_basis` completed by the job's own
    instant where the basis names one, and by the task id and seq.  A task
    the assignment cannot rank gets a rule that raises ValidationError when
    called, so only a task that releases a job fails: a graph node that
    never activates needs no period under RM.
    """
    tid = task.task_id
    klass, primary = key_basis(assignment, task, period=period,
                               relative_deadline=relative_deadline)
    if primary is RELEASE:
        return lambda seq, abs_release, abs_deadline: _key((klass, abs_release, tid, seq))
    if primary is DEADLINE:
        return lambda seq, abs_release, abs_deadline: _key((klass, abs_deadline, tid, seq))
    if primary is None:
        missing = _UNRANKED[assignment].format(task.name)

        def unranked(seq: int, abs_release: int, abs_deadline: int) -> PriorityKey:
            raise ValidationError(missing)

        return unranked
    return lambda seq, abs_release, abs_deadline: _key((klass, primary, tid, seq))


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
