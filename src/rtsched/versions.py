"""Multi-version selection and accelerator arbitration.

Selection runs when a job is created and again at dispatch if the chosen
version's accelerators turned busy in between; avoiding a busy accelerator
by switching to another version is always preferred over waiting.  When no
version can avoid the busy resource, the requester either boosts the holder
(priority inheritance, when the requester outranks it) or simply waits.

Under PRESELECTED and ENERGY_TIME a task's order of preference cannot change
within a run, so `version_ranking` computes it once and a choice is the
first ranked version whose accelerators are free (`first_free`).

Accelerators are single-unit and are held from dispatch to job completion,
across preemptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import RtschedError, SelectionError, UsageError
from .model import (
    EnergySelect,
    TaskDescriptor,
    UserSelect,
    VersionDescriptor,
    VersionSelection,
)


@dataclass
class SelectionContext:
    """Ambient inputs of a selection decision."""

    now: int = 0
    execution_mode: frozenset[str] = frozenset()
    permission_mask: frozenset[str] = frozenset()
    battery_probe: Callable[[], float] | None = None
    alpha: float = 0.5  # ENERGY_TIME weight: 1.0 = time only, 0.0 = energy only

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise UsageError("alpha must lie in [0, 1]")


class AcceleratorRegistry:
    """Runtime occupancy of the declared accelerators.

    One registry per run; the declarations themselves stay immutable.  The
    registry is manipulated under the ready-queue lock of the backend, so
    it needs no finer-grained locking of its own.
    """

    def __init__(self, accel_count: int, *, pip_enabled: bool = True):
        self.holders: list[object | None] = [None] * accel_count
        self.pip_enabled = pip_enabled

    def busy(self, accel_id: int) -> bool:
        return self.holders[accel_id] is not None

    def acquire(self, job, accel_ids) -> list[int]:
        """Atomically take all of accel_ids for `job` if every one is free.

        Returns the busy subset (empty on success).  Re-acquiring a unit
        the job already holds is an internal error: holds span the whole
        job, so a second request cannot legally happen.
        """
        ids = sorted(accel_ids)
        for a in ids:
            if self.holders[a] is job:
                raise RtschedError(
                    f"internal error: job {job.job_id} acquires accelerator {a} twice"
                )
        busy = [a for a in ids if self.holders[a] is not None]
        if busy:
            return busy
        for a in ids:
            self.holders[a] = job
        return []

    def apply_inheritance(self, requester, busy_ids) -> list:
        """Boost holders that rank below the requester.  Returns them."""
        if not self.pip_enabled:
            return []
        boosted = []
        rk = requester.effective_key()
        for a in busy_ids:
            holder = self.holders[a]
            if holder is not None and rk < holder.effective_key():
                holder.inherit(rk)
                boosted.append(holder)
        return boosted

    def release_all(self, job) -> list[int]:
        """Free every unit held by `job` and drop its inherited priority."""
        freed = [a for a, h in enumerate(self.holders) if h is job]
        for a in freed:
            self.holders[a] = None
        job.clear_inheritance()
        return freed


# ------------------------------------------------------------ selection


def eligible_versions(
    versions: list[VersionDescriptor], registry: AcceleratorRegistry
) -> list[VersionDescriptor]:
    """The versions whose accelerators are all free, in the given order."""
    busy = registry.busy
    return [v for v in versions if not v.accelerators or not any(map(busy, v.accelerators))]


def first_free(
    ranking: list[VersionDescriptor], registry: AcceleratorRegistry
) -> VersionDescriptor | None:
    """The first version of `ranking` whose accelerators are all free."""
    holders = registry.holders
    for v in ranking:
        for a in v.accelerators:
            if holders[a] is not None:
                break
        else:
            return v
    return None


def version_ranking(
    method: VersionSelection,
    task: TaskDescriptor,
    ctx: SelectionContext,
    pool: list[VersionDescriptor] | None = None,
) -> list[VersionDescriptor] | None:
    """`pool` (default: the task's versions) in the order `method` prefers,
    or None under a method whose choice can change within a run.

    PRESELECTED keeps the pool order.  ENERGY_TIME orders by (score,
    version_id); a score weighs execution time against energy cost by
    `ctx.alpha`, each normalised by its maximum over all the task's versions
    so both terms live on [0, 1].  The weight is read here, once.
    """
    pool = task.versions if pool is None else pool
    if method is not VersionSelection.ENERGY_TIME:
        return list(pool) if method is VersionSelection.PRESELECTED else None
    if len(pool) < 2:
        return list(pool)  # nothing to order
    tmax = max([v.select_props.exec_time for v in task.versions])
    emax = max([v.select_props.energy_cost for v in task.versions])
    alpha = ctx.alpha

    def score(v: VersionDescriptor) -> tuple[float, int]:
        p = v.select_props
        t = p.exec_time / tmax if tmax else 0.0
        e = p.energy_cost / emax if emax else 0.0
        return (alpha * t + (1.0 - alpha) * e, v.version_id)

    return sorted(pool, key=score)


def select_version(
    method: VersionSelection,
    task: TaskDescriptor,
    ctx: SelectionContext,
    registry: AcceleratorRegistry,
    pool: list[VersionDescriptor] | None = None,
) -> VersionDescriptor:
    """Pick the version to run for one job of `task`.

    `pool` narrows the considered versions (exploration restrictions or a
    dispatch-time retry over accelerator-free versions); default is the
    full declared set.  When every considered version touches a busy
    accelerator the choice falls back to the pool itself (under MODE and
    BITMASK: to the matching versions in it; under a ranked method: to the
    ranking's head); the dispatch path then waits on (or inherits into) the
    resource.  A USER selector gets its own copy.
    """
    pool = task.versions if pool is None else pool
    if not pool:
        raise SelectionError(f"task {task.name!r} has no versions")
    ranking = version_ranking(method, task, ctx, pool)
    if ranking is not None:
        return first_free(ranking, registry) or ranking[0]
    candidates = eligible_versions(pool, registry) or pool

    if method is VersionSelection.ENERGY:
        return _select_energy(task, candidates, ctx)
    if method is VersionSelection.MODE:
        matching = [v for v in pool if v.select_props.mode_mask & ctx.execution_mode]
        if matching:
            return (eligible_versions(matching, registry) or matching)[0]
        raise SelectionError(
            f"no version of task {task.name!r} matches execution mode"
            f" {sorted(ctx.execution_mode)}"
        )
    if method is VersionSelection.BITMASK:
        matching = [v for v in pool if v.select_props.permission_mask & ctx.permission_mask]
        if matching:
            return (eligible_versions(matching, registry) or matching)[0]
        raise SelectionError(
            f"no version of task {task.name!r} matches permission mask"
            f" {sorted(ctx.permission_mask)}"
        )
    if method is VersionSelection.USER:
        props = task.versions[0].select_props
        assert isinstance(props, UserSelect)
        chosen = props.selector(task, list(candidates), ctx)
        for v in candidates:
            if v.version_id == chosen:
                return v
        raise UsageError(
            f"user selector for task {task.name!r} returned version {chosen},"
            " which is not eligible"
        )
    raise SelectionError(f"unhandled selection method {method}")


def _battery_level(v: VersionDescriptor, ctx: SelectionContext) -> float:
    assert isinstance(v.select_props, EnergySelect)
    probe = v.select_props.get_battery_status or ctx.battery_probe
    if probe is None:
        raise SelectionError("ENERGY selection needs a battery probe")
    return probe()


def _select_energy(
    task: TaskDescriptor, candidates: list[VersionDescriptor], ctx: SelectionContext
) -> VersionDescriptor:
    fitting = [
        v for v in candidates if v.select_props.energy_budget <= _battery_level(v, ctx)
    ]
    if fitting:
        return min(fitting, key=lambda v: (v.wcet_estimate, v.version_id))
    # nothing affordable: degrade to the cheapest version
    return min(candidates, key=lambda v: (v.select_props.energy_budget, v.version_id))
