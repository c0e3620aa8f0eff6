"""Solver-independent solution and status types."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.milp.expr import Var


class DegradationLevel(enum.IntEnum):
    """Which rung of the safe-degradation chain answered a solve.

    Levels are ordered from exact to most conservative; every level is
    safe-side for the delay maximisations in this package (each step's
    optimum upper-bounds the previous step's), so a higher level trades
    tightness — never soundness — for availability. The values are
    stable (and need not be contiguous): traces carry the integer.
    """

    EXACT = 0
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
    #: The mirror of ``TARGET_REACHED``: a solve under an objective
    #: cutoff ended with no incumbent beyond its target. ``objective``
    #: is the larger of the cutoff and the incumbent, an *upper* bound
    #: on the optimum (the cutoff itself whenever no solution lies
    #: above it) and never read as an exact optimum, since HiGHS's own
    #: bounds are void under a cutoff. No variable values are reported.
    BELOW_CUTOFF = "below_cutoff"
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
        degradation: Which rung of the safe-degradation chain produced
            this solution (:attr:`DegradationLevel.EXACT` unless the
            analysis had to fall back after a failed solve, see
            ``ProposedAnalysis._solve_model``).
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Mapping[Var, float] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    backend: str = ""
    node_count: int | None = None
    degradation: DegradationLevel = DegradationLevel.EXACT

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
