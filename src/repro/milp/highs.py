"""HiGHS backend via :func:`scipy.optimize.milp`.

This is the primary, exact backend. SciPy embeds the HiGHS solver,
which plays the role IBM CPLEX plays in the paper's experiments.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Mapping

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.errors import BackendUnavailableError, SolverTimeoutError
from repro.milp.model import MilpBackend, MilpModel
from repro.milp.solution import MilpSolution, SolveStatus
from repro.obs import events as obs

# scipy.optimize.milp status codes (see its docs).
_SCIPY_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIME_LIMIT,  # iteration/time limit with incumbent
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}

# Option perturbations tried, in order, when HiGHS reports status 4
# (solver error). Some HiGHS builds fail in presolve on models that are
# perfectly solvable; others need a tighter integer-feasibility
# tolerance on degenerate models (e.g. duplicate rows from l=u memory
# demands). ``mip_feasibility_tolerance`` and ``objective_target`` are
# not in scipy's known-option list and are passed to HiGHS verbatim
# (scipy warns about that; the warning is suppressed below because
# verbatim is exactly the intent).
_STATUS4_RETRY_LADDER: tuple[Mapping[str, object], ...] = (
    {"presolve": False},
    {"mip_feasibility_tolerance": 1e-7},
    {"presolve": False, "mip_feasibility_tolerance": 1e-7},
)

# HiGHS model status 12 (``kObjectiveTarget``). scipy has no status of
# its own for it: it reports status 4 with this marker in ``message``.
_TARGET_MARKER = "(HiGHS Status 12:"


def _reached_target(result: Any, target: float | None) -> bool:
    """Whether a scipy result is a stop at the requested objective target."""
    return (
        target is not None
        and result.status == 4
        and _TARGET_MARKER in result.message
    )


class HighsBackend(MilpBackend):
    """Solve models with HiGHS through SciPy.

    Attributes:
        time_limit: Wall-clock cap in seconds (``None`` = unlimited).
        mip_rel_gap: Relative MIP gap at which HiGHS may stop. The
            delay bound stays safe for maximisation only when the gap
            is applied to the *dual* bound, so a nonzero gap should be
            paired with :attr:`use_dual_bound`.
        use_dual_bound: Report HiGHS' dual (upper) bound instead of the
            incumbent objective. For a maximisation whose result must
            upper-bound reality (our delay analyses), the dual bound is
            the safe choice whenever the solve may stop early.
        extra_options: Additional raw HiGHS options merged into every
            solve (e.g. ``{"presolve": False}``); used by the resilient
            wrapper to perturb retries.
    """

    name = "highs"

    def __init__(
        self,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
        use_dual_bound: bool = False,
        extra_options: Mapping[str, object] | None = None,
    ) -> None:
        self.time_limit = time_limit
        self.mip_rel_gap = mip_rel_gap
        self.use_dual_bound = use_dual_bound
        self.extra_options = dict(extra_options) if extra_options else {}

    def solve(
        self, model: MilpModel, target: float | None = None
    ) -> MilpSolution:
        """Solve ``model``; with ``target``, stop once an incumbent beats it.

        The target reaches HiGHS as its ``objective_target`` option. A
        stop there returns :attr:`SolveStatus.TARGET_REACHED` with the
        target as the objective (the optimum exceeds it). It is an
        answer, not a fault, so the status-4 option ladder does not
        retry it.
        """
        compiled = model.compile()
        # scipy minimises; our canonical sense is maximise.
        c = -compiled.objective
        constraints = None
        if compiled.num_rows:
            constraints = LinearConstraint(
                compiled.row_matrix, compiled.row_lower, compiled.row_upper
            )
        bounds = Bounds(compiled.var_lower, compiled.var_upper)
        options: dict[str, object] = {}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        if self.mip_rel_gap:
            options["mip_rel_gap"] = self.mip_rel_gap
        options.update(self.extra_options)
        if target is not None:
            # scipy minimises -(c @ x); HiGHS stops once that drops
            # below -(target - c0), i.e. once the objective exceeds it.
            options["objective_target"] = -(
                target - compiled.objective_constant
            )

        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="Unrecognized options")
            result = milp(
                c=c,
                constraints=constraints,
                bounds=bounds,
                integrality=compiled.integrality,
                options=options or None,
            )
            for perturbation in _STATUS4_RETRY_LADDER:
                if result.status != 4 or _reached_target(result, target):
                    break
                obs.emit(
                    "highs.retry",
                    model=model.name,
                    options=dict(perturbation),
                )
                result = milp(
                    c=c,
                    constraints=constraints,
                    bounds=bounds,
                    integrality=compiled.integrality,
                    options={**options, **perturbation},
                )
        elapsed = time.perf_counter() - start

        stats = (
            f"rows={compiled.num_rows}, vars={compiled.num_vars}, "
            f"elapsed={elapsed:.2f}s"
        )
        if _reached_target(result, target):
            status = SolveStatus.TARGET_REACHED
        else:
            status = _SCIPY_STATUS.get(result.status, SolveStatus.ERROR)
        obs.emit(
            "highs.solve",
            dur=elapsed,
            model=model.name,
            scipy_status=int(result.status),
            rows=compiled.num_rows,
            vars=compiled.num_vars,
        )
        if status.has_solution and result.x is None:
            # Limit hit before any incumbent was found: there is no
            # value to report, not even an unsafe one.
            raise SolverTimeoutError(
                f"HiGHS hit its limit with no incumbent on model "
                f"{model.name!r} ({stats})"
            )
        if status is SolveStatus.ERROR:
            raise BackendUnavailableError(
                f"HiGHS failed (scipy status {result.status}) on model "
                f"{model.name!r}, {len(_STATUS4_RETRY_LADDER)} option "
                f"retries included ({stats})"
            )
        if status is SolveStatus.TARGET_REACHED:
            assert target is not None
            return MilpSolution(
                status=status,
                objective=float(target),
                runtime_seconds=elapsed,
                backend=self.name,
                node_count=getattr(result, "mip_node_count", None),
            )
        if not status.has_solution:
            return MilpSolution(
                status=status, runtime_seconds=elapsed, backend=self.name
            )

        x = np.asarray(result.x, dtype=float)
        # Snap integer variables to avoid 0.9999999 artefacts downstream.
        int_mask = compiled.integrality.astype(bool)
        x[int_mask] = np.round(x[int_mask])
        objective = float(compiled.objective @ x) + compiled.objective_constant
        if (
            self.use_dual_bound
            and status is SolveStatus.TIME_LIMIT
            and result.mip_dual_bound is not None
            and np.isfinite(result.mip_dual_bound)
        ):
            # Early stop: report the safe side. scipy's dual bound is
            # for the minimisation of -obj, and is only meaningful when
            # the solve actually stopped early (at optimality the
            # incumbent is exact and some HiGHS builds report stale
            # dual bounds).
            objective = max(
                objective,
                float(-result.mip_dual_bound) + compiled.objective_constant,
            )
        values = {var: float(x[var.index]) for var in compiled.variables}
        return MilpSolution(
            status=status,
            objective=objective,
            values=values,
            runtime_seconds=elapsed,
            backend=self.name,
            node_count=getattr(result, "mip_node_count", None),
        )
