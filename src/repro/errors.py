"""Exception hierarchy for :mod:`repro`.

All exceptions raised by the library derive from :class:`ReproError`,
so callers can catch library failures with a single ``except`` clause
while still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ModelError(ReproError):
    """Raised when a task, task set, or platform description is invalid."""


class CurveError(ReproError):
    """Raised when an arrival curve is constructed or queried incorrectly."""


class SolverError(ReproError):
    """Raised when a MILP backend fails (infeasible model, bad status...)."""


class SolverTimeoutError(SolverError):
    """Raised when a solve exceeds its wall-clock budget without a result.

    Raised by backends that hit their internal limit with no incumbent
    (HiGHS); the analysis then degrades to a safe bound.
    """


class BackendUnavailableError(SolverError):
    """Raised when a backend cannot produce any usable result.

    Covers hard solver failures: HiGHS failing on every rung of its
    option ladder. The analysis then degrades to a safe bound.
    """


class InfeasibleModelError(SolverError):
    """Raised when a MILP that is expected to be feasible is not.

    The schedulability MILPs built by :mod:`repro.analysis` are feasible
    by construction; infeasibility indicates a formulation bug and is
    therefore surfaced loudly instead of being treated as a result.
    """


class UnboundedModelError(SolverError):
    """Raised when the MILP objective is unbounded.

    An unbounded delay-maximisation MILP means a constraint is missing:
    the analysis would otherwise silently report an infinite (useless
    but "safe") delay bound.
    """


class AnalysisError(ReproError):
    """Raised when a schedulability analysis is misused.

    Examples: analysing a task that is not part of the supplied task
    set, or requesting the LS analysis for a task not marked LS.
    """


class SimulationError(ReproError):
    """Raised when the discrete-event simulator reaches an invalid state."""


class PartitioningError(ReproError):
    """Raised when tasks cannot be partitioned onto the platform cores."""


class ExperimentError(ReproError):
    """Raised for invalid experiment configurations."""


class WorkerCrashError(ExperimentError):
    """Raised when a sweep work unit repeatedly kills its worker process.

    The sweep engine survives worker deaths (worker respawn + unit
    requeue); a unit that keeps crashing workers past its retry budget
    is quarantined into the failure ledger with this error type — or,
    under the ``RAISE`` failure policy, aborts the sweep with this
    exception.
    """


class FaultPlanError(ReproError):
    """Raised for invalid fault-injection plans (:mod:`repro.faults`).

    Covers unknown fault sites or modes, malformed trigger predicates,
    and unreadable ``--inject`` plan files.
    """


class ObservabilityError(ReproError):
    """Raised for invalid trace events, files, or profile operations.

    Covers malformed event records (schema violations), unreadable or
    truncated JSONL trace files, and profile aggregations asked to
    reconcile against mismatching run artifacts.
    """
