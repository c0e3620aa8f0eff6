"""A pure-Python branch-and-bound MILP backend.

Solves LP relaxations with :func:`scipy.optimize.linprog` (HiGHS LP
simplex/IPM) and branches on fractional integer variables. It exists to
cross-validate the primary :class:`repro.milp.HighsBackend` on small
instances — two independent code paths reaching the same optimum is the
closest offline substitute for checking our formulation against a
second industrial solver.

The implementation is best-first (max relaxation bound on top), with
most-fractional branching and an optional node budget.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from repro.errors import SolverError
from repro.milp.model import CompiledMilp, MilpBackend, MilpModel
from repro.milp.solution import MilpSolution, SolveStatus

_INT_TOL = 1e-6


@dataclass(order=True)
class _Node:
    """A branch-and-bound node ordered by decreasing relaxation bound."""

    sort_key: float
    counter: int
    lower: np.ndarray = field(compare=False)
    upper: np.ndarray = field(compare=False)


class BranchBoundBackend(MilpBackend):
    """Best-first branch and bound over HiGHS LP relaxations.

    Attributes:
        max_nodes: Node budget; exceeding it returns ``TIME_LIMIT``
            status with the best *dual* bound as the objective (safe
            for delay maximisation).
        time_limit: Optional wall-clock budget in seconds.
        int_tol: Integrality tolerance.
    """

    name = "branch_bound"

    def __init__(
        self,
        max_nodes: int = 20000,
        time_limit: float | None = None,
        int_tol: float = _INT_TOL,
    ) -> None:
        if max_nodes <= 0:
            raise SolverError("max_nodes must be positive")
        self.max_nodes = max_nodes
        self.time_limit = time_limit
        self.int_tol = int_tol

    # ------------------------------------------------------------------
    def _relax(
        self,
        compiled: CompiledMilp,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> tuple[float, np.ndarray] | None:
        """Solve one LP relaxation. Returns (objective, x) or None."""
        n = compiled.num_vars
        a_ub_rows = []
        b_ub = []
        a_eq_rows = []
        b_eq = []
        for r in range(compiled.num_rows):
            row = compiled.row_matrix[r]
            lo, hi = compiled.row_lower[r], compiled.row_upper[r]
            if lo == hi:
                a_eq_rows.append(row)
                b_eq.append(lo)
                continue
            if np.isfinite(hi):
                a_ub_rows.append(row)
                b_ub.append(hi)
            if np.isfinite(lo):
                a_ub_rows.append(-row)
                b_ub.append(-lo)
        res = linprog(
            c=-compiled.objective,
            A_ub=np.array(a_ub_rows) if a_ub_rows else None,
            b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(a_eq_rows) if a_eq_rows else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=list(zip(lower, upper)),
            method="highs",
        )
        if not res.success:
            return None
        x = np.asarray(res.x, dtype=float)
        return float(compiled.objective @ x), x

    def solve(
        self,
        model: MilpModel,
        target: float | None = None,
        cutoff: float | None = None,
    ) -> MilpSolution:
        # No target or cutoff support: the exact optimum answers both.
        del target, cutoff
        compiled = model.compile()
        start = time.perf_counter()
        counter = itertools.count()
        int_indices = np.flatnonzero(compiled.integrality)

        root = self._relax(compiled, compiled.var_lower, compiled.var_upper)
        if root is None:
            return MilpSolution(
                status=SolveStatus.INFEASIBLE,
                runtime_seconds=time.perf_counter() - start,
                backend=self.name,
            )
        root_obj, _root_x = root
        if not np.isfinite(root_obj):
            return MilpSolution(
                status=SolveStatus.UNBOUNDED,
                runtime_seconds=time.perf_counter() - start,
                backend=self.name,
            )

        heap: list[_Node] = [
            _Node(
                sort_key=-root_obj,
                counter=next(counter),
                lower=compiled.var_lower.copy(),
                upper=compiled.var_upper.copy(),
            )
        ]
        best_obj = -np.inf
        best_x: np.ndarray | None = None
        nodes = 0
        hit_budget = False

        while heap:
            if nodes >= self.max_nodes or (
                self.time_limit is not None
                and time.perf_counter() - start > self.time_limit
            ):
                hit_budget = True
                break
            node = heapq.heappop(heap)
            dual_bound = -node.sort_key
            if dual_bound <= best_obj + 1e-9:
                continue  # cannot improve the incumbent
            nodes += 1
            relaxed = self._relax(compiled, node.lower, node.upper)
            if relaxed is None:
                continue
            obj, x = relaxed
            if obj <= best_obj + 1e-9:
                continue
            frac = np.abs(x[int_indices] - np.round(x[int_indices]))
            if int_indices.size == 0 or np.all(frac <= self.int_tol):
                # Integral solution: new incumbent.
                best_obj, best_x = obj, x
                continue
            branch_pos = int(np.argmax(frac))
            var_idx = int(int_indices[branch_pos])
            floor_val = np.floor(x[var_idx])
            # Down child: x_var <= floor
            lo_d, hi_d = node.lower.copy(), node.upper.copy()
            hi_d[var_idx] = floor_val
            # Up child: x_var >= floor + 1
            lo_u, hi_u = node.lower.copy(), node.upper.copy()
            lo_u[var_idx] = floor_val + 1.0
            for lo_c, hi_c in ((lo_d, hi_d), (lo_u, hi_u)):
                if lo_c[var_idx] > hi_c[var_idx]:
                    continue
                heapq.heappush(
                    heap,
                    _Node(
                        sort_key=-obj,  # parent bound is valid for children
                        counter=next(counter),
                        lower=lo_c,
                        upper=hi_c,
                    ),
                )

        elapsed = time.perf_counter() - start
        if best_x is None:
            if hit_budget:
                # No incumbent but a valid dual bound: report it so a
                # delay-maximisation caller still gets a safe bound.
                return MilpSolution(
                    status=SolveStatus.TIME_LIMIT,
                    objective=root_obj + compiled.objective_constant,
                    values={
                        var: float("nan") for var in compiled.variables
                    },
                    runtime_seconds=elapsed,
                    backend=self.name,
                    node_count=nodes,
                )
            return MilpSolution(
                status=SolveStatus.INFEASIBLE,
                runtime_seconds=elapsed,
                backend=self.name,
                node_count=nodes,
            )

        status = SolveStatus.OPTIMAL
        objective = best_obj
        if hit_budget:
            status = SolveStatus.TIME_LIMIT
            # Remaining open nodes cap how much better the optimum can be.
            open_bound = max((-n.sort_key for n in heap), default=best_obj)
            objective = max(best_obj, open_bound)
        x = best_x.copy()
        x[int_indices] = np.round(x[int_indices])
        values = {var: float(x[var.index]) for var in compiled.variables}
        return MilpSolution(
            status=status,
            objective=objective + compiled.objective_constant,
            values=values,
            runtime_seconds=elapsed,
            backend=self.name,
            node_count=nodes,
        )
