"""User-space scheduling middleware for multi-version real-time task sets.

Declare tasks, alternative implementations, accelerators and channels on a
MiddlewareState, pick a mapping/priority policy, then either simulate the
run under virtual time (deterministic, seedable) or execute it on OS
threads.  Both backends plan releases, keep ready queues and pick the next
job through one SchedulerCore, so they release, queue and rank jobs by the
same rules.  They do not yet run a policy identically.  The thread backend
releases without a horizon, so its last pass can release jobs that the
simulator does not, and at stop it drains its whole backlog.  When a job
preempts there, the victim is whichever flagged worker yields first, not a
job the core chose.

The thread backend (`run_realtime`, `processor_preflight`) and the sweep
(`run_sweep` and its companions) are bound as modules that run their code
when first read, so a run that only simulates runs neither.
"""

import importlib.util
import sys

from .errors import (
    BackendError,
    ConfigurationError,
    DeclarationError,
    GraphError,
    PhaseError,
    RtschedError,
    SdfDeadlockError,
    SdfInconsistentError,
    SelectionError,
    TraceIntegrityError,
    UsageError,
    ValidationError,
)
from .model import (
    MS,
    US,
    AcceleratorDescriptor,
    BitmaskSelect,
    ClockSource,
    Diagnostic,
    EnergySelect,
    EnergyTimeSelect,
    LockingStrategy,
    MappingScheme,
    MiddlewareState,
    ModeSelect,
    Phase,
    PolicyConfig,
    PriorityAssignment,
    TaskDescriptor,
    TaskKind,
    UserSelect,
    VersionDescriptor,
    VersionSelection,
    WaitingStrategy,
    cleanup,
    hwaccel_decl,
    hwaccel_use,
    init,
    ms,
    start,
    stop,
    task_activate,
    task_decl,
    us,
    version_decl,
)
from .priority import PriorityKey, assign_priority
from .graph import (
    ChannelDescriptor,
    ChannelState,
    ExpansionPlan,
    GraphInfo,
    SdfEdge,
    SdfGraph,
    analyze_graph,
    channel_connect,
    channel_decl,
    channel_pop,
    channel_push,
    expand_sdf,
    plan_expansion,
    repetition_vector,
)
from .versions import (
    AcceleratorRegistry,
    SelectionContext,
    eligible_versions,
    select_version,
)
from .online import Job, SchedulerCore, hyperperiod, scheduler_tick_period
from .offline import ScheduleTable, TableEntry, validate_table
from .tracing import (
    CSV_COLUMNS,
    EVENT_KINDS,
    SCHEDULER_WORKER,
    Overheads,
    RunReport,
    Stat,
    TaskStats,
    TraceEvent,
    compute_overheads,
    read_trace_csv,
    trace_csv_text,
    write_trace_csv,
)
from .simulator import SimJobModel, parse_horizon, policy_label, run_simulation
from .document import TaskSetDocument, document_from_state, load_document

__version__ = "0.1.0"


def _on_first_use(name: str):
    """The submodule `name`, entered in sys.modules and in the package now
    but run only when one of its attributes is first read
    (importlib.util.LazyLoader), so code that looks a module up in
    sys.modules finds it as if it had been imported."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


realtime = _on_first_use("realtime")
sweep = _on_first_use("sweep")

# Package names read from those modules, so a run that only simulates never
# compiles the thread backend or the sweep.
_ON_FIRST_USE = {
    "processor_preflight": realtime,
    "run_realtime": realtime,
    "SWEEP_COLUMNS": sweep,
    "SweepSpec": sweep,
    "best_policy": sweep,
    "make_restrict": sweep,
    "run_sweep": sweep,
    "write_sweep_csv": sweep,
}


def __getattr__(name: str):
    """Read a name of _ON_FIRST_USE from its module (PEP 562) and keep it
    in the package, so the next lookup is a plain one."""
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "AcceleratorDescriptor",
    "AcceleratorRegistry",
    "BackendError",
    "BitmaskSelect",
    "CSV_COLUMNS",
    "ChannelDescriptor",
    "ChannelState",
    "ClockSource",
    "ConfigurationError",
    "DeclarationError",
    "Diagnostic",
    "EVENT_KINDS",
    "EnergySelect",
    "EnergyTimeSelect",
    "ExpansionPlan",
    "GraphError",
    "GraphInfo",
    "Job",
    "LockingStrategy",
    "MS",
    "MappingScheme",
    "MiddlewareState",
    "ModeSelect",
    "Overheads",
    "Phase",
    "PhaseError",
    "PolicyConfig",
    "PriorityAssignment",
    "PriorityKey",
    "RtschedError",
    "RunReport",
    "SCHEDULER_WORKER",
    "SWEEP_COLUMNS",
    "ScheduleTable",
    "SchedulerCore",
    "SdfDeadlockError",
    "SdfEdge",
    "SdfGraph",
    "SdfInconsistentError",
    "SelectionContext",
    "SelectionError",
    "SimJobModel",
    "Stat",
    "SweepSpec",
    "TableEntry",
    "TaskDescriptor",
    "TaskKind",
    "TaskSetDocument",
    "TaskStats",
    "TraceEvent",
    "TraceIntegrityError",
    "US",
    "UsageError",
    "UserSelect",
    "ValidationError",
    "VersionDescriptor",
    "VersionSelection",
    "WaitingStrategy",
    "analyze_graph",
    "assign_priority",
    "best_policy",
    "channel_connect",
    "channel_decl",
    "channel_pop",
    "channel_push",
    "cleanup",
    "compute_overheads",
    "document_from_state",
    "eligible_versions",
    "expand_sdf",
    "hwaccel_decl",
    "hwaccel_use",
    "hyperperiod",
    "init",
    "load_document",
    "make_restrict",
    "ms",
    "parse_horizon",
    "plan_expansion",
    "policy_label",
    "processor_preflight",
    "read_trace_csv",
    "repetition_vector",
    "run_realtime",
    "run_simulation",
    "run_sweep",
    "scheduler_tick_period",
    "select_version",
    "start",
    "stop",
    "task_activate",
    "task_decl",
    "trace_csv_text",
    "us",
    "validate_table",
    "version_decl",
    "write_sweep_csv",
    "write_trace_csv",
]
