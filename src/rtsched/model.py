"""Task model and middleware lifecycle.

All times are integer nanoseconds.  Identifiers are dense small integers
assigned in declaration order (task ids globally, version ids per task).
The lifecycle is an explicit phase machine:

    created -> initialized -> (running <-> stopped) -> cleaned

Declarations are legal while initialized or stopped, which is what makes
multi-mode operation (start, stop, modify, start again) possible.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import (
    ConfigurationError,
    DeclarationError,
    PhaseError,
    UsageError,
    ValidationError,
)

MS = 1_000_000
US = 1_000


def ms(x: float) -> int:
    """Milliseconds to integer nanoseconds."""
    return round(x * MS)


def us(x: float) -> int:
    """Microseconds to integer nanoseconds."""
    return round(x * US)


# ---------------------------------------------------------------- enums


class TaskKind(enum.Enum):
    PERIODIC = "periodic"
    SPORADIC = "sporadic"
    APERIODIC = "aperiodic"
    GRAPH_NODE = "graph_node"


class MappingScheme(enum.Enum):
    GLOBAL = "GLOBAL"
    PARTITIONED = "PARTITIONED"
    OFFLINE = "OFFLINE"


class PriorityAssignment(enum.Enum):
    RM = "RM"
    DM = "DM"
    EDF = "EDF"
    USER = "USER"


class VersionSelection(enum.Enum):
    ENERGY = "ENERGY"
    ENERGY_TIME = "ENERGY_TIME"
    MODE = "MODE"
    BITMASK = "BITMASK"
    USER = "USER"
    PRESELECTED = "PRESELECTED"


class WaitingStrategy(enum.Enum):
    SLEEP = "sleep"
    SPIN = "spin"


class LockingStrategy(enum.Enum):
    """How the thread backend locks a ready queue: OS_LOCK builds a FIFO
    ticket lock whose waiters sleep, LOCK_FREE one whose waiters spin.
    LOCK_FREE builds a lock, not a lock-free queue; its value is kept so
    that documents read as before."""

    OS_LOCK = "os_lock"
    LOCK_FREE = "lock_free"


class ClockSource(enum.Enum):
    VIRTUAL = "virtual"
    MONOTONIC_OS = "monotonic_os"


class Phase(enum.Enum):
    CREATED = "created"
    INITIALIZED = "initialized"
    RUNNING = "running"
    STOPPED = "stopped"
    CLEANED = "cleaned"


# ------------------------------------------------- version selection props


@dataclass(frozen=True)
class EnergySelect:
    """Pick the fastest version whose energy budget fits the battery level."""

    energy_budget: float
    get_battery_status: Callable[[], float] | None = None


@dataclass(frozen=True)
class EnergyTimeSelect:
    """Score versions by a weighted time/energy trade-off."""

    energy_cost: float
    exec_time: int  # ns, the time coordinate used for scoring


@dataclass(frozen=True)
class ModeSelect:
    """Version eligible when the execution mode intersects its mask."""

    mode_mask: frozenset[str]


@dataclass(frozen=True)
class BitmaskSelect:
    """Version eligible when the permission mask intersects its mask."""

    permission_mask: frozenset[str]


@dataclass(frozen=True)
class UserSelect:
    """Delegate the choice to a user callback."""

    selector: Callable[..., int]


SelectProps = EnergySelect | EnergyTimeSelect | ModeSelect | BitmaskSelect | UserSelect

_VARIANT_FOR_METHOD = {
    VersionSelection.ENERGY: EnergySelect,
    VersionSelection.ENERGY_TIME: EnergyTimeSelect,
    VersionSelection.MODE: ModeSelect,
    VersionSelection.BITMASK: BitmaskSelect,
    VersionSelection.USER: UserSelect,
}


# ---------------------------------------------------------- descriptors


@dataclass
class VersionDescriptor:
    version_id: int
    task_id: int
    entry: Callable[..., Any] | None
    static_args: Any
    wcet_estimate: int
    select_props: SelectProps | None
    accelerators: set[int] = field(default_factory=set)
    name: str = ""


@dataclass
class TaskDescriptor:
    task_id: int
    name: str
    kind: TaskKind
    period: int | None
    relative_deadline: int | None
    release_offset: int
    virt_core_id: int | None
    user_priority: int | None
    versions: list[VersionDescriptor] = field(default_factory=list)

    def version(self, version_id: int) -> VersionDescriptor:
        try:
            return self.versions[version_id]
        except IndexError:
            raise DeclarationError(
                f"task {self.name!r} has no version {version_id}"
            ) from None


@dataclass
class AcceleratorDescriptor:
    """A single-unit hardware resource."""

    accel_id: int
    name: str


@dataclass
class PolicyConfig:
    mapping_scheme: MappingScheme = MappingScheme.GLOBAL
    priority_assignment: PriorityAssignment = PriorityAssignment.EDF
    preemptive: bool = True
    version_selection: VersionSelection = VersionSelection.PRESELECTED
    waiting_strategy: WaitingStrategy = WaitingStrategy.SLEEP
    locking_strategy: LockingStrategy = LockingStrategy.OS_LOCK
    worker_count: int = 2
    clock_source: ClockSource = ClockSource.VIRTUAL

    def check(self) -> None:
        check_int("worker_count", self.worker_count, 1, error=ConfigurationError)
        if self.mapping_scheme is MappingScheme.OFFLINE:
            if self.preemptive:
                raise ConfigurationError("OFFLINE forbids preemption")
            if self.version_selection is not VersionSelection.PRESELECTED:
                raise ConfigurationError(
                    "OFFLINE requires PRESELECTED version selection"
                )


@dataclass
class Diagnostic:
    level: str  # "error" | "warning"
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.level}: [{self.code}] {self.message}"


# ------------------------------------------------------------- the state


def check_int(name: str, value, low: int | None, rule: str = "", error=DeclarationError) -> None:
    """Refuse argument `name` unless it is an int, not a bool, and >= low
    (if not None): the one rule for the counts, ids and ns times the entry
    points take.  `rule` words the bound in the message (default `>= low`)."""
    if isinstance(value, bool) or not isinstance(value, int) or low is not None and value < low:
        bound = "" if low is None else f"{rule or f'>= {low}'} and "
        raise error(f"{name} must be {bound}an int, not {value!r}")


def _check_name(what: str, name: str) -> None:  # names reach `k=v;...` trace payloads
    if ";" in name or "=" in name:
        raise DeclarationError(f"{what} name {name!r} may not contain ';' or '='")
    if "\r" in name or "\n" in name:  # csv.writer leaves a lone "\r" unquoted
        raise DeclarationError(f"{what} name {name!r} may not contain a line break")


class MiddlewareState:
    """Everything declared plus the lifecycle phase.

    Constructed via init().  Backends read this state; the virtual-time
    simulator never mutates it.
    """

    def __init__(self, config: PolicyConfig):
        config.check()
        self.config = config
        self.phase = Phase.CREATED
        self.tasks: list[TaskDescriptor] = []
        self.accelerators: list[AcceleratorDescriptor] = []
        # channels/connections are populated by the task-graph module
        self.channels: list = []
        self._channel_names: set[str] = set()
        self.table = None  # ScheduleTable under OFFLINE
        self._backend = None
        self._names: set[str] = set()

    # -------------------------------------------------- phase helpers

    def _require_phase(self, *allowed: Phase, op: str) -> None:
        if self.phase not in allowed:
            names = "/".join(p.value for p in allowed)
            raise PhaseError(f"{op} requires phase {names}, state is {self.phase.value}")

    def _require_mutable(self, op: str) -> None:
        self._require_phase(Phase.INITIALIZED, Phase.STOPPED, op=op)

    # ----------------------------------------------------- declarations

    def task_decl(
        self,
        name: str,
        kind: TaskKind | str = TaskKind.PERIODIC,
        *,
        period: int | None = None,
        relative_deadline: int | None = None,
        release_offset: int = 0,
        virt_core_id: int | None = None,
        user_priority: int | None = None,
    ) -> int:
        """Declare a task and return its dense id."""
        self._require_mutable("task_decl")
        kind = TaskKind(kind)
        if not name or name in self._names:
            raise DeclarationError(f"task name {name!r} missing or already used")
        _check_name("task", name)
        if kind in (TaskKind.PERIODIC, TaskKind.SPORADIC) and period is None:
            raise DeclarationError(f"{kind.value} task {name!r} needs period > 0")
        if kind is TaskKind.APERIODIC and period is not None:
            raise DeclarationError("aperiodic tasks take no period")
        if period is not None:
            check_int("period", period, 1, "> 0")
        if relative_deadline is None and period is not None:
            relative_deadline = period  # implicit deadline
        if relative_deadline is not None:
            check_int("relative_deadline", relative_deadline, 1, "> 0")
        check_int("release_offset", release_offset, 0)
        if virt_core_id is not None:  # also under GLOBAL, which ignores it: a document holds it
            check_int("virt_core_id", virt_core_id, 0)
        if user_priority is not None:
            check_int("user_priority", user_priority, None)
        if self.config.mapping_scheme in (MappingScheme.PARTITIONED, MappingScheme.OFFLINE):
            if virt_core_id is None:
                raise DeclarationError(
                    f"{self.config.mapping_scheme.value} mapping requires virt_core_id"
                    f" on task {name!r}"
                )
            if virt_core_id >= self.config.worker_count:
                raise DeclarationError(
                    f"virt_core_id {virt_core_id} out of range for"
                    f" {self.config.worker_count} workers"
                )
        task = TaskDescriptor(
            task_id=len(self.tasks),
            name=name,
            kind=kind,
            period=period,
            relative_deadline=relative_deadline,
            release_offset=release_offset,
            virt_core_id=virt_core_id,
            user_priority=user_priority,
        )
        self.tasks.append(task)
        self._names.add(name)
        return task.task_id

    def version_decl(
        self,
        task_id: int,
        *,
        wcet_estimate: int,
        entry: Callable[..., Any] | None = None,
        static_args: Any = None,
        select: SelectProps | None = None,
        name: str = "",
    ) -> int:
        """Declare a functionally equivalent implementation of a task."""
        self._require_mutable("version_decl")
        check_int("task_id", task_id, 0)
        task = self.task(task_id)
        check_int("wcet_estimate", wcet_estimate, 1, "> 0")
        _check_name("version", name)
        method = self.config.version_selection
        if method is not VersionSelection.PRESELECTED:
            expected = _VARIANT_FOR_METHOD[method]
            if not isinstance(select, expected):
                raise DeclarationError(
                    f"version selection {method.value} expects"
                    f" {expected.__name__} props, got"
                    f" {type(select).__name__ if select else 'none'}"
                )
            if isinstance(select, ModeSelect) and not select.mode_mask:
                raise DeclarationError("mode_mask must be non-empty")
            if isinstance(select, BitmaskSelect) and not select.permission_mask:
                raise DeclarationError("permission_mask must be non-empty")
            # NaN scores have no order, so no one ranking stands for every free subset
            if isinstance(select, EnergyTimeSelect) and not (
                    -math.inf < select.energy_cost < math.inf
                    and -math.inf < select.exec_time < math.inf):
                raise DeclarationError("energy_cost and exec_time must be finite")
        name = name or f"v{len(task.versions)}"
        if any(v.name == name for v in task.versions):
            raise DeclarationError(f"task {task.name!r} already has a version named {name!r}")
        version = VersionDescriptor(
            version_id=len(task.versions),
            task_id=task_id,
            entry=entry,
            static_args=static_args,
            wcet_estimate=wcet_estimate,
            select_props=select,
            name=name,
        )
        task.versions.append(version)
        return version.version_id

    def hwaccel_decl(self, name: str) -> int:
        """Register a single-unit accelerator and return its id."""
        self._require_mutable("hwaccel_decl")
        _check_name("accelerator", name)
        if any(a.name == name for a in self.accelerators):
            raise DeclarationError(f"accelerator {name!r} already declared")
        accel = AcceleratorDescriptor(accel_id=len(self.accelerators), name=name)
        self.accelerators.append(accel)
        return accel.accel_id

    def hwaccel_use(self, task_id: int, version_id: int, accel_id: int) -> None:
        """Bind an accelerator to a task version (idempotent)."""
        self._require_mutable("hwaccel_use")
        check_int("task_id", task_id, 0)
        check_int("version_id", version_id, 0)
        version = self.task(task_id).version(version_id)
        check_int("accel_id", accel_id, 0)
        if accel_id >= len(self.accelerators):
            raise DeclarationError(f"unknown accelerator id {accel_id}")
        version.accelerators.add(accel_id)

    # ------------------------------------------------------ activation

    def task_activate(self, task_id: int, *, now: int | None = None) -> int:
        """Request a job of a sporadic or aperiodic task in a running
        thread-backend run (MONOTONIC_OS); `now` defaults to the run's clock.

        Returns the release instant.  Sporadic releases are deferred to
        max(now, last_release + period) to honour the minimum inter-arrival
        spacing.  Simulated runs script their requests in
        SimJobModel.activations instead.
        """
        self._require_phase(Phase.RUNNING, op="task_activate")
        check_int("task_id", task_id, 0)
        task = self.task(task_id)
        if task.kind not in (TaskKind.SPORADIC, TaskKind.APERIODIC):
            raise UsageError(
                f"task_activate on {task.kind.value} task {task.name!r}:"
                " recurring tasks self-release"
            )
        if self._backend is None:
            raise UsageError(
                "task_activate needs a thread-backend run; simulated runs"
                " script activations in SimJobModel.activations"
            )
        return self._backend.activate(task_id, now)

    # ------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Validate the task set and begin a run: one fresh clock, trace
        and report, with no activation request left from an earlier run."""
        self._require_phase(Phase.INITIALIZED, Phase.STOPPED, op="start")
        graph = self.check()
        if self.config.clock_source is ClockSource.MONOTONIC_OS:
            from .realtime import RealtimeBackend

            self._backend = RealtimeBackend(self, graph)
        # running before the backend's threads start: their bodies may
        # call task_activate at once
        previous, self.phase = self.phase, Phase.RUNNING
        if self._backend is not None:
            try:
                self._backend.start()
            except BaseException:
                self.phase = previous
                raise

    def stop(self) -> None:
        """Cease releases.  Jobs already released still run to completion,
        so on the thread backend stop() returns once that backlog is done."""
        self._require_phase(Phase.RUNNING, op="stop")
        if self._backend is not None:
            self._backend.stop()
        self.phase = Phase.STOPPED

    def cleanup(self) -> None:
        """Tear down.  Terminal: no operation is legal afterwards."""
        self._require_phase(Phase.STOPPED, op="cleanup")
        self._backend = None
        self.phase = Phase.CLEANED

    # --------------------------------------------------------- lookups

    def task(self, task_id: int) -> TaskDescriptor:
        if not 0 <= task_id < len(self.tasks):
            raise DeclarationError(f"unknown task id {task_id}")
        return self.tasks[task_id]

    def task_by_name(self, name: str) -> TaskDescriptor:
        for t in self.tasks:
            if t.name == name:
                return t
        raise DeclarationError(f"unknown task {name!r}")

    # ------------------------------------------------------ validation

    def check(self):
        """The gate every run opens through: analyse the graph once,
        validate, and return the GraphInfo.  Raises ValidationError listing
        each error as `code: message`."""
        from .graph import analyze_graph

        graph = analyze_graph(self)
        errors = [d for d in self.validate(graph) if d.level == "error"]
        if errors:
            raise ValidationError("; ".join(f"{d.code}: {d.message}" for d in errors))
        return graph

    def validate(self, graph=None) -> list[Diagnostic]:
        """Start-time validation.  Returns diagnostics, errors first.
        `graph` is the task set's GraphInfo when the caller already has it."""
        from .graph import analyze_graph
        from .offline import validate_table

        out: list[Diagnostic] = []
        cfg = self.config

        if not self.tasks:
            out.append(Diagnostic("error", "empty", "no tasks declared"))

        for t in self.tasks:
            if not t.versions:
                out.append(
                    Diagnostic(
                        "error", "no-version", f"task {t.name!r} declares no versions"
                    )
                )
            if t.kind is TaskKind.APERIODIC and t.relative_deadline is None:
                out.append(
                    Diagnostic(
                        "error",
                        "no-deadline",
                        f"aperiodic task {t.name!r} needs relative_deadline",
                    )
                )
            if (
                cfg.priority_assignment is PriorityAssignment.USER
                and t.kind is not TaskKind.GRAPH_NODE
                and t.user_priority is None
            ):
                out.append(
                    Diagnostic(
                        "error",
                        "no-user-priority",
                        f"USER priority assignment but task {t.name!r} has none",
                    )
                )
            if (
                cfg.priority_assignment is not PriorityAssignment.USER
                and t.user_priority is not None
            ):
                out.append(
                    Diagnostic(
                        "warning",
                        "ignored-field",
                        f"user_priority on task {t.name!r} is ignored under"
                        f" {cfg.priority_assignment.value}",
                    )
                )

        if cfg.mapping_scheme is not MappingScheme.OFFLINE:
            if not any(t.period is not None for t in self.tasks):
                out.append(
                    Diagnostic(
                        "error",
                        "no-tick",
                        "on-line mapping requires at least one recurring task",
                    )
                )

        out.extend((graph or analyze_graph(self)).diagnostics)

        if cfg.mapping_scheme is MappingScheme.OFFLINE:
            if self.table is None:
                out.append(
                    Diagnostic("error", "no-table", "OFFLINE mapping requires a table")
                )
            else:
                out.extend(validate_table(self, self.table))

        out.sort(key=lambda d: (d.level != "error",))
        return out


# ------------------------------------------------------ functional API
# Thin wrappers so call sites can mirror the C-style middleware interface.


def init(config: PolicyConfig | None = None) -> MiddlewareState:
    """Create and initialize a middleware instance."""
    state = MiddlewareState(config or PolicyConfig())
    state.phase = Phase.INITIALIZED
    return state


def task_decl(state: MiddlewareState, *args, **kwargs) -> int:
    return state.task_decl(*args, **kwargs)


def version_decl(state: MiddlewareState, *args, **kwargs) -> int:
    return state.version_decl(*args, **kwargs)


def hwaccel_decl(state: MiddlewareState, name: str) -> int:
    return state.hwaccel_decl(name)


def hwaccel_use(state: MiddlewareState, task_id: int, version_id: int, accel_id: int) -> None:
    state.hwaccel_use(task_id, version_id, accel_id)


def task_activate(state: MiddlewareState, task_id: int, *, now: int | None = None) -> int:
    return state.task_activate(task_id, now=now)


def start(state: MiddlewareState) -> None:
    state.start()


def stop(state: MiddlewareState) -> None:
    state.stop()


def cleanup(state: MiddlewareState) -> None:
    state.cleanup()
