"""Solver-independent solution and status types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.milp.expr import Var


class DegradationLevel(enum.IntEnum):
    """How far a resilient solve degraded from the exact MILP.

    Levels are ordered from exact to most conservative; every level is
    safe-side for the delay maximisations in this package (each step's
    optimum upper-bounds the previous step's), so a higher level trades
    tightness — never soundness — for availability.
    """

    EXACT = 0
    DUAL_BOUND = 1
    LP_RELAXATION = 2
    CLOSED_FORM = 3


class SolveStatus(enum.Enum):
    """Outcome of a MILP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIME_LIMIT = "time_limit"
    #: The solve stopped at its objective target: an incumbent beat the
    #: target, so the optimum exceeds it. ``objective`` is the target,
    #: a lower bound on the optimum; no variable values are reported.
    TARGET_REACHED = "target_reached"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether variable values/objective are available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.TIME_LIMIT)


@dataclass(frozen=True)
class MilpSolution:
    """Result of solving a :class:`repro.milp.MilpModel`.

    Attributes:
        status: Solve outcome.
        objective: Objective value; meaningful when ``status.has_solution``.
        values: Assignment of each model variable (by :class:`Var`).
        runtime_seconds: Wall-clock time spent in the backend.
        backend: Name of the backend that produced the solution.
        node_count: Branch-and-bound nodes explored (if reported).
        degradation: Which rung of the safe-degradation ladder produced
            this solution (:attr:`DegradationLevel.EXACT` unless a
            :class:`repro.milp.ResilientBackend` had to fall back).
        details: Free-form diagnostics attached by wrapping backends —
            e.g. the :class:`repro.milp.ResilientBackend` records its
            retry count and the capped/jittered backoff schedule here
            (keys ``retries``, ``backoff_schedule``) next to the
            ``degradation`` level they led to.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Mapping[Var, float] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    backend: str = ""
    node_count: int | None = None
    degradation: DegradationLevel = DegradationLevel.EXACT
    details: Mapping[str, object] = field(default_factory=dict)

    def __getitem__(self, var: Var) -> float:
        return self.values[var]

    def value_by_name(self, name: str) -> float:
        """Look a variable's value up by its name."""
        for var, val in self.values.items():
            if var.name == name:
                return val
        raise KeyError(name)

    def binaries_set(self, tol: float = 1e-6) -> tuple[str, ...]:
        """Names of integer variables whose value rounds to 1.

        Useful when inspecting which schedule structure the delay
        maximisation selected.
        """
        return tuple(
            var.name
            for var, val in self.values.items()
            if var.integer and abs(val - 1.0) <= tol
        )
