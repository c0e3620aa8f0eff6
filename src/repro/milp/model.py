"""The MILP model container and its matrix compilation.

:class:`MilpModel` registers variables and constraints built with
:mod:`repro.milp.expr` and compiles them into the dense/NumPy matrix
form that both backends consume. Maximisation is canonical (the
analyses maximise delay); minimisation is expressed by negating the
objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

from repro.errors import SolverError
from repro.milp.expr import Constraint, ExprLike, LinExpr, Var
from repro.milp.solution import MilpSolution


@dataclass(frozen=True)
class CompiledMilp:
    """Matrix form of a model: maximise ``c @ x + c0`` s.t. rows/bounds."""

    objective: np.ndarray
    objective_constant: float
    row_matrix: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    var_lower: np.ndarray
    var_upper: np.ndarray
    integrality: np.ndarray
    variables: tuple[Var, ...]

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return self.row_matrix.shape[0]


class MilpModel:
    """A mixed-integer linear program under construction."""

    #: Class-wide default for the pre-solve audit gate of :meth:`solve`
    #: (overridable per call). Off by default; the formulation tests and
    #: belt-and-braces deployments flip it on.
    audit_before_solve: ClassVar[bool] = False

    def __init__(self, name: str = "milp") -> None:
        self.name = name
        self._vars: list[Var] = []
        self._names: set[str] = set()
        self._constraints: list[Constraint] = []
        self._row_index: dict[str, int] = {}
        self._objective: LinExpr = LinExpr()
        self._sense_max = True
        self._compiled: CompiledMilp | None = None

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def var(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = float("inf"),
        integer: bool = False,
    ) -> Var:
        """Create and register a variable."""
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r}")
        v = Var(name, lower, upper, integer, index=len(self._vars))
        self._vars.append(v)
        self._names.add(name)
        self._compiled = None
        return v

    def binary(self, name: str) -> Var:
        """Create a {0,1} variable."""
        return self.var(name, 0.0, 1.0, integer=True)

    def continuous(self, name: str, lower: float = 0.0, upper: float = float("inf")) -> Var:
        """Create a continuous variable (non-negative by default)."""
        return self.var(name, lower, upper, integer=False)

    @property
    def variables(self) -> tuple[Var, ...]:
        return tuple(self._vars)

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(self._constraints)

    # ------------------------------------------------------------------
    # constraints and objective
    # ------------------------------------------------------------------
    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint (optionally naming it for diagnostics)."""
        if not isinstance(constraint, Constraint):
            raise SolverError(
                f"expected a Constraint, got {type(constraint).__name__}; "
                "did a comparison produce a bool?"
            )
        for var in constraint.expr.terms:
            if var.index >= len(self._vars) or self._vars[var.index] is not var:
                raise SolverError(
                    f"constraint uses variable {var.name!r} from another model"
                )
        if name:
            constraint.named(name)
        elif not constraint.name:
            # Auto-number unnamed rows so audit reports and violation
            # listings can reference every constraint.
            constraint.named(f"r{len(self._constraints)}")
        self._row_index.setdefault(constraint.name, len(self._constraints))
        self._constraints.append(constraint)
        self._compiled = None
        return constraint

    def add_all(self, constraints: Iterable[Constraint], prefix: str = "") -> None:
        """Add several constraints, numbering them under ``prefix``.

        With an empty prefix the rows fall back to the model-wide
        ``r<index>`` auto-numbering instead of staying anonymous.
        """
        for i, con in enumerate(constraints):
            self.add(con, f"{prefix}[{i}]" if prefix else "")

    def maximize(self, expr: ExprLike) -> None:
        """Set a maximisation objective."""
        self._objective = LinExpr.from_(expr)
        self._sense_max = True
        self._compiled = None

    def minimize(self, expr: ExprLike) -> None:
        """Set a minimisation objective."""
        self._objective = LinExpr.from_(expr)
        self._sense_max = False
        self._compiled = None

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def constraint_named(self, name: str) -> Constraint | None:
        """The first constraint added under ``name``, or ``None``."""
        index = self._row_index.get(name)
        return self._constraints[index] if index is not None else None

    def set_rhs(self, name: str, rhs: float) -> bool:
        """Retarget one named row's right-hand side in place.

        The constraint ``expr <sense> rhs`` is stored normalised as
        ``expr - rhs <sense> 0``, so only the expression constant moves;
        the coefficient structure — and hence the row's audit identity —
        is untouched. A cached compilation is patched in place (no
        matrix rebuild), which is what makes successive fixpoint
        iterations on the same interval structure cheap.

        Returns ``False`` when no row of that name exists (a formulation
        may omit a row whose variable set is empty; retargeting it is
        then a no-op by construction).
        """
        index = self._row_index.get(name)
        if index is None:
            return False
        if not math.isfinite(rhs):
            raise SolverError(
                f"{self.name}: non-finite right-hand side {rhs!r} for "
                f"row {name!r}"
            )
        con = self._constraints[index]
        con.expr.constant = -float(rhs)
        if self._compiled is not None:
            lower, upper = con.bounds()
            self._compiled.row_lower[index] = lower
            self._compiled.row_upper[index] = upper
        return True

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def is_maximization(self) -> bool:
        return self._sense_max

    # ------------------------------------------------------------------
    # compilation / solving
    # ------------------------------------------------------------------
    def compile(self) -> CompiledMilp:
        """Lower the model to matrix form (canonical sense: maximise).

        The compilation is cached: structural edits (new variables or
        rows, a new objective) invalidate it, while :meth:`set_rhs`
        patches the cached row-bound arrays in place. Repeated solves
        of one model — an LP screen followed by the integer solve, or a
        warm-started fixpoint iteration — therefore compile once.
        """
        if self._compiled is not None:
            return self._compiled
        n = len(self._vars)
        if n == 0:
            raise SolverError("model has no variables")
        c = np.zeros(n)
        for var, coef in self._objective.terms.items():
            if not math.isfinite(coef):
                raise SolverError(
                    f"{self.name}: objective coefficient for {var.name!r} "
                    f"is {coef!r}; NaN/inf coefficients are rejected before "
                    "they can silently corrupt the solve"
                )
            c[var.index] = coef
        if not math.isfinite(self._objective.constant):
            raise SolverError(
                f"{self.name}: objective constant is "
                f"{self._objective.constant!r}"
            )
        if not self._sense_max:
            c = -c
        rows = np.zeros((len(self._constraints), n))
        row_lower = np.empty(len(self._constraints))
        row_upper = np.empty(len(self._constraints))
        for r, con in enumerate(self._constraints):
            label = con.name or f"r{r}"
            for var, coef in con.expr.terms.items():
                if not math.isfinite(coef):
                    raise SolverError(
                        f"{self.name}: constraint {label!r} has coefficient "
                        f"{coef!r} on {var.name!r}; NaN/inf coefficients are "
                        "rejected before they reach the backend"
                    )
                rows[r, var.index] = coef
            if not math.isfinite(con.expr.constant):
                raise SolverError(
                    f"{self.name}: constraint {label!r} has a non-finite "
                    f"constant {con.expr.constant!r}"
                )
            row_lower[r], row_upper[r] = con.bounds()
        self._compiled = CompiledMilp(
            objective=c,
            objective_constant=(
                self._objective.constant
                if self._sense_max
                else -self._objective.constant
            ),
            row_matrix=rows,
            row_lower=row_lower,
            row_upper=row_upper,
            var_lower=np.array([v.lower for v in self._vars]),
            var_upper=np.array([v.upper for v in self._vars]),
            integrality=np.array(
                [1 if v.integer else 0 for v in self._vars], dtype=int
            ),
            variables=tuple(self._vars),
        )
        return self._compiled

    def solve(
        self,
        backend: "MilpBackend | None" = None,
        audit: bool | None = None,
        target: float | None = None,
    ) -> MilpSolution:
        """Solve with the given backend (HiGHS by default).

        Args:
            backend: Solver backend; HiGHS when omitted.
            audit: Run the structural pre-solve audit
                (:func:`repro.milp.audit.audit_model`) and raise
                :class:`SolverError` if it reports any error-severity
                defect. ``None`` defers to the class-wide opt-in
                ``MilpModel.audit_before_solve``.
            target: Optional objective target (see
                :meth:`MilpBackend.solve`).
        """
        if audit is None:
            audit = MilpModel.audit_before_solve
        if audit:
            from repro.milp.audit import audit_model

            report = audit_model(self)
            if not report.ok:
                raise SolverError(
                    "pre-solve audit failed:\n" + report.render()
                )
        if backend is None:
            from repro.milp.highs import HighsBackend

            backend = HighsBackend()
        return solve_with_target(backend, self, target)

    def check_assignment(
        self, values: Sequence[float], tol: float = 1e-6
    ) -> list[Constraint]:
        """Return the constraints violated by a candidate assignment."""
        if len(values) != len(self._vars):
            raise SolverError("assignment length mismatch")
        mapping = {v: float(values[v.index]) for v in self._vars}
        return [c for c in self._constraints if not c.satisfied(mapping, tol)]

    def stats(self) -> dict[str, int]:
        """Model size summary (variables/binaries/constraints)."""
        return {
            "variables": len(self._vars),
            "integers": sum(1 for v in self._vars if v.integer),
            "constraints": len(self._constraints),
        }


class MilpBackend:
    """Interface implemented by MILP solving backends."""

    name = "abstract"

    def solve(
        self, model: MilpModel, target: float | None = None
    ) -> MilpSolution:
        """Solve ``model`` (canonical sense: maximise).

        With ``target`` set, a backend may stop as soon as it holds an
        incumbent whose objective exceeds the target and report
        :attr:`SolveStatus.TARGET_REACHED` with the target as the
        objective. A backend without target support ignores it and
        returns the exact optimum, which answers the same question.
        """
        raise NotImplementedError


def solve_with_target(
    backend: MilpBackend, model: MilpModel, target: float | None
) -> MilpSolution:
    """``backend.solve(model, target=target)``, omitting an unset target.

    Backends written against the one-argument ``solve(model)`` keep
    working for every exact solve.
    """
    if target is None:
        return backend.solve(model)
    return backend.solve(model, target=target)
