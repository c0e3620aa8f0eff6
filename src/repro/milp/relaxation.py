"""LP-relaxation backend and batched LP relaxation.

Solves a model with all integrality constraints dropped. For a
*maximisation* the relaxed optimum upper-bounds the MILP optimum, so —
for the delay analyses in this package — the result is still a safe
(more pessimistic) delay bound at a fraction of the cost: one LP solve,
no branching. Used as the ``method="lp"`` ablation axis and as the
degradation rung between a failed exact solve and the closed form.

:func:`screen_batch` joins independent relaxations into one
block-diagonal LP (their feasible sets do not interact, so the joint
optimum decomposes into the per-block optima) and solves it in a single
HiGHS call. It is off the verdict path: the ladder's LP screen at
``t_D`` proved nothing a root-pruned cutoff probe does not, and was
deleted.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import block_diag, csc_matrix

from repro.milp.model import CompiledMilp, MilpBackend, MilpModel
from repro.milp.solution import MilpSolution, SolveStatus

_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIME_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def _relaxed(
    c: np.ndarray,
    constraints: LinearConstraint | None,
    bounds: Bounds,
) -> "object":
    """One LP solve (integrality dropped), with the status-4 retry."""
    result = milp(
        c=c,
        constraints=constraints,
        bounds=bounds,
        integrality=np.zeros(len(c), dtype=int),
    )
    if result.status == 4:
        result = milp(
            c=c,
            constraints=constraints,
            bounds=bounds,
            integrality=np.zeros(len(c), dtype=int),
            options={"presolve": False},
        )
    return result


class LpRelaxationBackend(MilpBackend):
    """Solve the LP relaxation (integrality dropped) with HiGHS."""

    name = "lp_relaxation"

    def solve(
        self,
        model: MilpModel,
        target: float | None = None,
        cutoff: float | None = None,
    ) -> MilpSolution:
        # Unsupported: the relaxation bound, an upper bound on the
        # optimum, answers both.
        del target, cutoff
        return self.solve_compiled(model.compile())

    def solve_compiled(self, compiled: CompiledMilp) -> MilpSolution:
        """Solve from an existing compilation (no model re-lowering).

        The degradation chain relaxes the model whose exact solve
        failed; this entry point reuses its compilation directly.
        """
        constraints = None
        if compiled.num_rows:
            constraints = LinearConstraint(
                compiled.row_matrix, compiled.row_lower, compiled.row_upper
            )
        start = time.perf_counter()
        result = _relaxed(
            -compiled.objective,
            constraints,
            Bounds(compiled.var_lower, compiled.var_upper),
        )
        elapsed = time.perf_counter() - start
        status = _STATUS.get(result.status, SolveStatus.ERROR)
        if not status.has_solution or result.x is None:
            return MilpSolution(
                status=status, runtime_seconds=elapsed, backend=self.name
            )
        x = np.asarray(result.x, dtype=float)
        return MilpSolution(
            status=status,
            objective=float(compiled.objective @ x)
            + compiled.objective_constant,
            values={var: float(x[var.index]) for var in compiled.variables},
            runtime_seconds=elapsed,
            backend=self.name,
        )


def screen_batch(
    compiled: Sequence[CompiledMilp],
) -> list[float | None]:
    """LP-relaxation upper bounds for many models in one solver call.

    Off the verdict path; kept only for the benchmark's tracer, which
    wraps it by name, until ROADMAP item 1's benchmark change deletes it.

    The models are stacked into a block-diagonal LP; because the blocks
    share no variables or rows, the joint maximum is the sum of the
    per-block maxima and each block's slice of the joint solution is an
    optimal solution of that block. The returned bound per model is
    therefore a valid LP-relaxation optimum — a safe over-approximation
    of the block's MILP optimum.

    Returns one bound per input model, or ``None`` entries when the
    joint solve does not come back optimal (a failed screen is simply
    inconclusive; callers fall through to the exact path).
    """
    if not compiled:
        return []
    if len(compiled) == 1:
        solution = LpRelaxationBackend().solve_compiled(compiled[0])
        if solution.status is not SolveStatus.OPTIMAL:
            return [None]
        return [solution.objective]
    blocks = [csc_matrix(c.row_matrix) for c in compiled]
    matrix = block_diag(blocks, format="csc")
    row_lower = np.concatenate([c.row_lower for c in compiled])
    row_upper = np.concatenate([c.row_upper for c in compiled])
    var_lower = np.concatenate([c.var_lower for c in compiled])
    var_upper = np.concatenate([c.var_upper for c in compiled])
    objective = np.concatenate([c.objective for c in compiled])
    constraints = None
    if matrix.shape[0]:
        constraints = LinearConstraint(matrix, row_lower, row_upper)
    result = _relaxed(
        -objective, constraints, Bounds(var_lower, var_upper)
    )
    if _STATUS.get(result.status, SolveStatus.ERROR) is not SolveStatus.OPTIMAL:
        return [None] * len(compiled)
    if result.x is None:
        return [None] * len(compiled)
    x = np.asarray(result.x, dtype=float)
    bounds: list[float | None] = []
    offset = 0
    for c in compiled:
        x_block = x[offset : offset + c.num_vars]
        bounds.append(float(c.objective @ x_block) + c.objective_constant)
        offset += c.num_vars
    return bounds
