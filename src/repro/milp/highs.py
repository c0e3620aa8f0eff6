"""HiGHS backend via :func:`scipy.optimize.milp`.

This is the primary, exact backend. SciPy embeds the HiGHS solver,
which plays the role IBM CPLEX plays in the paper's experiments.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.errors import BackendUnavailableError, SolverTimeoutError
from repro.faults import injection as faults
from repro.milp.model import CompiledMilp, MilpBackend, MilpModel
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

# Option perturbations tried, in order, after a failed attempt: HiGHS
# status 4 (solver error), a non-finite objective, or an injected
# ``solver.fault``. Some HiGHS builds fail in presolve on models that are
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


@contextmanager
def _stdout_silenced() -> Iterator[None]:
    """Point file descriptor 1 at the null device for the extent.

    HiGHS's MIP solver writes some debug lines (for example
    ``HighsMipSolverData::transformNewIntegerFeasibleSolution
    tmpSolver.run();``) straight to fd 1 even with its output off,
    where they would interleave with a caller's own output. Restored
    on every path; a process with no fd 1 runs unchanged.
    """
    try:
        saved = os.dup(1)
    except OSError:
        yield
        return
    try:
        with open(os.devnull, "wb") as sink:
            os.dup2(sink.fileno(), 1)
            yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)


#: HiGHS's default ``mip_feasibility_tolerance``: how far its own
#: incumbents may break a row or a variable bound.
_FEASIBILITY_TOL = 1e-6


def _snapped(compiled: CompiledMilp, x: np.ndarray) -> np.ndarray:
    """``x`` with its integer variables rounded (HiGHS reports values
    such as 0.9999999), unless the rounded point breaks a row or a
    variable bound by more than :data:`_FEASIBILITY_TOL`; then HiGHS's
    own values stand, so the objective is never read off an infeasible
    point."""
    snapped = x.copy()
    int_mask = compiled.integrality.astype(bool)
    snapped[int_mask] = np.round(snapped[int_mask])
    activity = compiled.row_matrix @ snapped
    violation = max(
        np.max(compiled.row_lower - activity, initial=0.0),
        np.max(activity - compiled.row_upper, initial=0.0),
        np.max(compiled.var_lower - snapped, initial=0.0),
        np.max(snapped - compiled.var_upper, initial=0.0),
    )
    return snapped if violation <= _FEASIBILITY_TOL else x


def _reached_target(result: Any, target: float | None) -> bool:
    """Whether a scipy result is a stop at the requested objective target."""
    return (
        target is not None
        and result.status == 4
        and _TARGET_MARKER in result.message
    )


class HighsBackend(MilpBackend):
    """Solve models with HiGHS through SciPy.

    A solve makes up to four attempts: its base options, then each
    rung of :data:`_STATUS4_RETRY_LADDER` on top of them. An attempt fails when HiGHS
    reports an error status, when it returns a non-finite objective,
    or when the ``solver.fault`` site injects a crash, timeout or
    garbage answer into it; a failed attempt moves on to the next
    option set. :class:`BackendUnavailableError` is raised once every
    attempt has failed. Definitive outcomes (optimal, infeasible,
    unbounded, a target stop, a cutoff proof, a time-limit stop) are
    answers and end the solve.

    Attributes:
        time_limit: Wall-clock cap in seconds per attempt (``None`` =
            unlimited). A stop at the limit reports the larger of the
            incumbent and HiGHS' dual bound, so the value stays an
            upper bound on the maximum; under a cutoff it raises
            :class:`SolverTimeoutError` instead.
    """

    name = "highs"

    def __init__(self, time_limit: float | None = None) -> None:
        self.time_limit = time_limit

    def solve(
        self,
        model: MilpModel,
        target: float | None = None,
        cutoff: float | None = None,
    ) -> MilpSolution:
        """Solve ``model``; with ``target``, stop once an incumbent beats
        it; with ``cutoff``, prune everything at or below the cutoff.

        The target reaches HiGHS as its ``objective_target`` option. A
        stop there returns :attr:`SolveStatus.TARGET_REACHED` with the
        target as the objective (the optimum exceeds it). It is an
        answer, not a fault, so the option ladder does not retry it.

        The cutoff reaches HiGHS as its ``objective_bound`` option, so
        branch and bound prunes every node whose LP bound cannot exceed
        it. HiGHS's dual bound is meaningless under a cutoff (it can
        report an optimum below the true one), so no value of such a
        solve is read as exact: a solve that ends optimal or infeasible
        returns :attr:`SolveStatus.BELOW_CUTOFF` with the larger of the
        cutoff and the incumbent, an upper bound on the optimum; an
        incumbent beyond ``target`` returns ``TARGET_REACHED`` as a stop
        would; and a time-limit stop raises :class:`SolverTimeoutError`,
        because it bounds nothing.

        Every solve runs at zero relative and absolute MIP gap, so an
        optimal answer reports HiGHS's incumbent, which is the optimum
        up to its feasibility tolerances, not a value within its default
        gap of it. Only a time-limit stop reads the dual bound: it
        reports the larger of the incumbent and that bound, an upper
        bound on the optimum.
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
        options: dict[str, object] = {"mip_rel_gap": 0.0, "mip_abs_gap": 0.0}
        if self.time_limit is not None:
            options["time_limit"] = self.time_limit
        if target is not None:
            # scipy minimises -(c @ x); HiGHS stops once that drops
            # below -(target - c0), i.e. once the objective exceeds it.
            options["objective_target"] = -(
                target - compiled.objective_constant
            )
        if cutoff is not None:
            # ... and prunes every node whose bound on -(c @ x) is not
            # below -(cutoff - c0): those cannot exceed the cutoff.
            options["objective_bound"] = -(
                cutoff - compiled.objective_constant
            )

        start = time.perf_counter()
        failures: list[str] = []
        result: Any = None
        status = SolveStatus.ERROR
        x: np.ndarray | None = None
        objective: float | None = None
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="Unrecognized options")
            for rung, perturbation in enumerate(({},) + _STATUS4_RETRY_LADDER):
                if rung:
                    obs.emit(
                        "highs.retry",
                        model=model.name,
                        options=dict(perturbation),
                    )
                x = objective = None
                spec = faults.fire("solver.fault", backend=self.name)
                if spec is not None:
                    failures.append(f"injected {spec.mode}")
                    continue
                with _stdout_silenced():
                    result = milp(
                        c=c,
                        constraints=constraints,
                        bounds=bounds,
                        integrality=compiled.integrality,
                        options={**options, **perturbation},
                    )
                if _reached_target(result, target):
                    status = SolveStatus.TARGET_REACHED
                    break
                status = _SCIPY_STATUS.get(result.status, SolveStatus.ERROR)
                if status is SolveStatus.ERROR:
                    failures.append(f"scipy status {result.status}")
                    continue
                if not status.has_solution or result.x is None:
                    break
                x = _snapped(compiled, np.asarray(result.x, dtype=float))
                objective = (
                    float(compiled.objective @ x) + compiled.objective_constant
                )
                if math.isfinite(objective):
                    break
                failures.append("non-finite objective")
        elapsed = time.perf_counter() - start

        stats = (
            f"rows={compiled.num_rows}, vars={compiled.num_vars}, "
            f"elapsed={elapsed:.2f}s"
        )
        if result is not None:
            obs.emit(
                "highs.solve",
                dur=elapsed,
                model=model.name,
                scipy_status=int(result.status),
                rows=compiled.num_rows,
                vars=compiled.num_vars,
            )
        if len(failures) > len(_STATUS4_RETRY_LADDER):  # every attempt
            raise BackendUnavailableError(
                f"HiGHS failed on model {model.name!r} with every option "
                f"set ({'; '.join(failures)}; {stats})"
            )
        node_count = getattr(result, "mip_node_count", None)
        if cutoff is not None and status in (
            SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE
        ):
            if target is not None and objective is not None and (
                objective > target
            ):
                status = SolveStatus.TARGET_REACHED
            else:
                return MilpSolution(
                    status=SolveStatus.BELOW_CUTOFF,
                    objective=float(cutoff)
                    if objective is None
                    else max(float(cutoff), objective),
                    runtime_seconds=elapsed,
                    backend=self.name,
                    node_count=node_count,
                )
        if status is SolveStatus.TARGET_REACHED:
            assert target is not None
            return MilpSolution(
                status=status,
                objective=float(target),
                runtime_seconds=elapsed,
                backend=self.name,
                node_count=node_count,
            )
        if cutoff is not None and status is SolveStatus.TIME_LIMIT:
            raise SolverTimeoutError(
                f"HiGHS hit its limit under a cutoff on model "
                f"{model.name!r}; its bounds are void there ({stats})"
            )
        if not status.has_solution:
            return MilpSolution(
                status=status, runtime_seconds=elapsed, backend=self.name
            )
        if x is None or objective is None:
            # Limit hit before any incumbent was found: there is no
            # value to report, not even an unsafe one.
            raise SolverTimeoutError(
                f"HiGHS hit its limit with no incumbent on model "
                f"{model.name!r} ({stats})"
            )
        dual_bound = getattr(result, "mip_dual_bound", None)
        if (
            status is SolveStatus.TIME_LIMIT
            and dual_bound is not None
            and np.isfinite(dual_bound)
        ):
            # Report the safe side: at a time limit the incumbent may
            # lie below the optimum. scipy's dual bound is for the
            # minimisation of -obj.
            objective = max(
                objective,
                float(-dual_bound) + compiled.objective_constant,
            )
        values = {var: float(x[var.index]) for var in compiled.variables}
        return MilpSolution(
            status=status,
            objective=objective,
            values=values,
            runtime_seconds=elapsed,
            backend=self.name,
            node_count=node_count,
        )
