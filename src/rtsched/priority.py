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
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError
from .model import PriorityAssignment, TaskDescriptor, TaskKind

CLASS_RECURRING = 0
CLASS_APERIODIC = 1


class PriorityKey(NamedTuple):
    klass: int
    primary: int
    task_id: int
    seq: int


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
    """Build the key for one job.

    period/relative_deadline override the task's own fields; the scheduler
    passes the root's values for graph-node jobs, whose timing is described
    at graph level.
    """
    if task.kind is TaskKind.APERIODIC:
        return PriorityKey(CLASS_APERIODIC, abs_release, task.task_id, seq)

    period = period if period is not None else task.period
    relative_deadline = (
        relative_deadline if relative_deadline is not None else task.relative_deadline
    )
    if assignment is PriorityAssignment.RM:
        if period is None:
            raise ValidationError(f"RM needs a period on task {task.name!r}")
        primary = period
    elif assignment is PriorityAssignment.DM:
        if relative_deadline is None:
            raise ValidationError(f"DM needs a relative deadline on task {task.name!r}")
        primary = relative_deadline
    elif assignment is PriorityAssignment.EDF:
        primary = abs_deadline
    else:  # USER
        if task.user_priority is None:
            raise ValidationError(f"USER priority missing on task {task.name!r}")
        primary = task.user_priority
    return PriorityKey(CLASS_RECURRING, primary, task.task_id, seq)

