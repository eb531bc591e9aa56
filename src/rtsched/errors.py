"""Exception hierarchy.

Everything raised on purpose derives from RtschedError so callers (and the
CLI exit-code mapping) can catch one base type.  Deadline misses are never
exceptions; they are data in the run report.
"""

from __future__ import annotations


class RtschedError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RtschedError):
    """Invalid or inconsistent policy configuration."""


class PhaseError(RtschedError):
    """Operation not legal in the current lifecycle phase."""


class DeclarationError(RtschedError):
    """Bad task/version/channel/accelerator declaration or reference."""


class ValidationError(RtschedError):
    """Task set failed start-time validation."""


class SelectionError(RtschedError):
    """No version satisfies the configured selection method."""


class GraphError(RtschedError):
    """Task graph structure problem (cycles, bad connections)."""


class SdfInconsistentError(GraphError):
    """Dataflow balance equations have no positive solution."""


class SdfDeadlockError(GraphError):
    """No actor can fire from the initial token state."""


class TraceIntegrityError(RtschedError):
    """Trace violates event ordering or pairing rules."""


class UsageError(RtschedError):
    """API called from the wrong context (e.g. channel op outside a job)."""


class BackendError(RtschedError):
    """Real-time backend cannot run on this host."""
