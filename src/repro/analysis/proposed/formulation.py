"""MILP formulation of the worst-case delay (paper Sec. V).

Given a task under analysis, a tentative delay window ``t`` and an
analysis mode, :func:`build_delay_milp` constructs the MILP whose
optimum upper-bounds the total length of the scheduling intervals that
delay the task, per Constraints 1-15 of the paper.

Modes
-----
``NLS``
    The task under analysis is not latency-sensitive (Sec. V-A):
    up to two lower-priority blocking intervals.
``LS_CASE_A``
    The task is LS and is *not* promoted to urgent in ``I_0``
    (Sec. V-B case (a)): at most one blocking interval, no
    lower-priority copy-in anywhere in the window (Constraint 14).
``LS_CASE_B``
    The task is LS and *is* promoted in ``I_0`` (case (b)): exactly two
    intervals; the CPU performs the task's copy-in and execution
    sequentially in ``I_1`` (Constraint 15).
``WASLY``
    The protocol of [3]: same interval structure as ``NLS`` but without
    cancellations or urgent executions (the paper notes its MILP
    "improves the one in [3]" when no task is LS — this mode is that
    specialisation, used as the [3] baseline).

Variable-encoding notes (all equivalences, not relaxations):

* Constraint 1 (``L^k_j = E^{k+1}_j``) is applied by *substitution*:
  the copy-in indicator of task j in interval k **is** ``E^{k+1}_j``.
* Constraint 2 (``E^k_j + LE^k_j = U^{k+1}_j``) likewise eliminates the
  copy-out binaries.
* Binaries that a constraint forces to zero (e.g. lower-priority
  executions beyond ``I_1``, urgent executions of NLS tasks) are simply
  not created; expression builders treat missing variables as 0.
* ``CL^k_j`` (cancelled copy-in) exists only where some LS task with a
  priority higher than j can release — including the task under
  analysis itself (its copy-in can be cancelled by a higher-priority LS
  release; the paper's Constraint 10 sums over all of Gamma).

Deviations that *enlarge* the feasible set (safe for a maximisation
bound) are documented in DESIGN.md: Constraints 5 and 6 encoded as
``<= 1`` instead of ``= 1``, and the refined interval counts.

:mod:`repro.analysis.proposed.chain` solves the windowed model as a
chain over interval occupants, with the global budget rows relaxed; a
rule changed here must change there too. ``tests/test_chain_bound.py``
ties the two: the chain's bound never falls below this model's
optimum, and each of its schedules passes
:meth:`~repro.milp.model.MilpModel.check_assignment` on this model.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.proposed.intervals import (
    interference_budget,
    interval_count_ls,
    interval_count_nls,
)
from repro.errors import AnalysisError
from repro.milp.expr import LinExpr, Var
from repro.milp.model import MilpModel
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time


class AnalysisMode(enum.Enum):
    """Which variant of the delay MILP to build."""

    NLS = "nls"
    LS_CASE_A = "ls_a"
    LS_CASE_B = "ls_b"
    WASLY = "wasly"

    @property
    def uses_ls_machinery(self) -> bool:
        """Whether cancellations/urgency (rules R3-R5) are modelled."""
        return self is not AnalysisMode.WASLY

    @property
    def blocking_intervals(self) -> int:
        """Lower-priority blocking intervals the closed form charges:
        two for an NLS task of either protocol, one for an LS task."""
        return 2 if self in (AnalysisMode.NLS, AnalysisMode.WASLY) else 1


@dataclass(frozen=True)
class DelayMilp:
    """A built delay MILP plus the handles the driver needs.

    Attributes:
        model: The MILP; objective = sum of interval lengths.
        deltas: The interval-length variables, by interval index.
        num_intervals: ``N_i(t)`` used for the build.
        mode: Analysis mode the MILP encodes.
        window: The tentative delay window ``t`` the build used.
        stats: Size/diagnostic counters.
    """

    model: MilpModel
    deltas: tuple[Var, ...]
    num_intervals: int
    mode: AnalysisMode
    window: Time
    stats: Mapping[str, object] = field(default_factory=dict)


class _VarTable:
    """Sparse (interval, task) -> Var map; missing entries mean 0."""

    def __init__(self, model: MilpModel, prefix: str) -> None:
        self._model = model
        self._prefix = prefix
        self._vars: dict[tuple[int, str], Var] = {}

    def create(self, k: int, task: Task) -> Var:
        var = self._model.binary(f"{self._prefix}[{k},{task.name}]")
        self._vars[(k, task.name)] = var
        return var

    def get(self, k: int, task: Task) -> Var | None:
        return self._vars.get((k, task.name))

    def row(self, k: int) -> list[Var]:
        """All variables of interval ``k``."""
        return [v for (kk, _), v in self._vars.items() if kk == k]

    def column(self, task: Task) -> list[Var]:
        """All variables of one task across intervals."""
        return [v for (_, name), v in self._vars.items() if name == task.name]

    def all_vars(self) -> list[Var]:
        return list(self._vars.values())

    def __len__(self) -> int:
        return len(self._vars)


def _lin(vars_and_coefs: list[tuple[Var | None, float]]) -> LinExpr:
    """Build a LinExpr from (maybe-missing var, coefficient) pairs."""
    expr = LinExpr()
    for var, coef in vars_and_coefs:
        if var is not None and coef != 0.0:
            expr = expr + coef * var
    return expr


def cancellation_budget(
    taskset: TaskSet, task: Task, window: Time, mode: AnalysisMode
) -> int:
    """Max cancellations in the window (DESIGN.md cancellation budget).

    Each cancellation is triggered by one LS release inside the window;
    under case (a) the task's own release at the window start counts
    too. Exposed as a function because, together with the interference
    budgets and ``N_i(t)``, it is one of the three integer staircases
    through which the window enters the formulation — the analysis
    cache keys on exactly these quantities.
    """
    if not mode.uses_ls_machinery:
        return 0
    budget = sum(
        s.eta(window) + 1 for s in taskset.ls_tasks if s.name != task.name
    )
    if mode is AnalysisMode.LS_CASE_A:
        budget += 1
    return budget


def _big_m(taskset: TaskSet) -> float:
    """A safe upper bound on any single interval's length.

    An interval lasts as long as the longer of the CPU side (at most
    one execution, possibly preceded by an urgent copy-in) and the DMA
    side (one copy-out plus one copy-in).
    """
    cpu = max(t.copy_in + t.exec_time for t in taskset)
    dma = taskset.max_copy_in() + taskset.max_copy_out()
    return cpu + dma + 1.0


def build_delay_milp(
    taskset: TaskSet,
    task: Task,
    window: Time,
    mode: AnalysisMode,
    hp_wcrt: Mapping[str, Time] | None = None,
) -> DelayMilp:
    """Construct the delay-maximisation MILP for one analysis step.

    Args:
        taskset: The per-core task set ``Gamma``.
        task: The task under analysis ``tau_i``.
        window: Tentative delay window ``t = R - C_i - u_i``.
        mode: Formulation variant (see :class:`AnalysisMode`).
        hp_wcrt: Known WCRT bounds of higher-priority tasks; when
            provided, interference is charged with the jitter-aware
            refinement instead of the paper's ``eta(t)+1`` (see
            :func:`repro.analysis.proposed.intervals.interference_budget`).

    Returns:
        The built MILP; its optimum is the worst-case total length of
        the delaying intervals (add ``u_i`` for the response time).
    """
    taskset.require_member(task)
    if mode in (AnalysisMode.LS_CASE_A, AnalysisMode.LS_CASE_B):
        if not task.latency_sensitive:
            raise AnalysisError(f"{task.name} is not marked LS; use NLS mode")
    if mode is AnalysisMode.NLS and task.latency_sensitive:
        raise AnalysisError(f"{task.name} is marked LS; use the LS modes")

    if mode is AnalysisMode.LS_CASE_B:
        return _build_case_b(taskset, task)
    n = interval_count(taskset, task, window, mode, hp_wcrt)
    return _build_windowed(taskset, task, window, mode, n, hp_wcrt)


def interval_count(
    taskset: TaskSet,
    task: Task,
    window: Time,
    mode: AnalysisMode,
    hp_wcrt: Mapping[str, Time] | None = None,
) -> int:
    """``N_i(t)`` of a windowed mode: Corollary 1 for LS case (a),
    Theorem 1 for NLS and WASLY."""
    count = (
        interval_count_ls
        if mode is AnalysisMode.LS_CASE_A
        else interval_count_nls
    )
    return count(
        taskset, task, window, hp_wcrt,
        urgent_possible=mode.uses_ls_machinery,
    )


def lp_exec_span(mode: AnalysisMode) -> int:
    """Leading intervals that may hold a lower-priority execution: two
    for NLS/WASLY (Constraint 3), one for LS case (a) (Constraint 14)."""
    return 1 if mode is AnalysisMode.LS_CASE_A else 2


def update_delay_milp(
    built: DelayMilp,
    taskset: TaskSet,
    task: Task,
    window: Time,
    hp_wcrt: Mapping[str, Time] | None = None,
) -> DelayMilp | None:
    """Retarget an already-built delay MILP to a new window, in place.

    The window enters the windowed formulation *only* through the
    interval count ``N_i(t)`` (variable structure) and the right-hand
    sides of the per-task execution budgets (``C7[j]``, higher-priority
    rows) and the cancellation budget (``CLbudget``). When the new
    window keeps ``N_i(t)`` unchanged, mutating those row bounds yields
    a model bit-identical to a fresh :func:`build_delay_milp` at the
    new window — same variables, same coefficient matrix, same row
    order and names (audit provenance included) — without re-running
    any construction Python. Returns ``None`` when the interval count
    changed and the caller must rebuild.
    """
    mode = built.mode
    if mode is AnalysisMode.LS_CASE_B:
        return built  # case (b) is window-independent
    n = interval_count(taskset, task, window, mode, hp_wcrt)
    if n != built.num_intervals:
        return None
    model = built.model
    for j in taskset.hp(task):
        model.set_rhs(
            f"C7[{j.name}]", float(interference_budget(j, window, hp_wcrt))
        )
    model.set_rhs(
        "CLbudget", float(cancellation_budget(taskset, task, window, mode))
    )
    return dataclasses.replace(built, window=window)


# ----------------------------------------------------------------------
# shared windowed formulation (NLS, LS case (a), WASLY)
# ----------------------------------------------------------------------
def _cancellers(
    taskset: TaskSet, task: Task, victim: Task, mode: AnalysisMode
) -> list[Task]:
    """LS tasks whose release can cancel ``victim``'s copy-in (R3).

    A release of an LS task ``s`` cancels an in-progress copy-in of any
    task with a priority lower than ``s``. The task under analysis
    itself counts when it is LS (case (a)): its own release at the
    window start can cancel a lower-priority copy-in.
    """
    if not mode.uses_ls_machinery:
        return []
    out = [
        s
        for s in taskset.ls_tasks
        if s.priority < victim.priority and s.name not in (task.name, victim.name)
    ]
    if mode is AnalysisMode.LS_CASE_A and task.priority < victim.priority:
        out.append(task)
    return out


def _build_windowed(
    taskset: TaskSet,
    task: Task,
    window: Time,
    mode: AnalysisMode,
    n: int,
    hp_wcrt: Mapping[str, Time] | None = None,
) -> DelayMilp:
    others = tuple(j for j in taskset if j.name != task.name)
    hp = set(t.name for t in taskset.hp(task))
    lp = set(t.name for t in taskset.lp(task))
    max_l_all = max(t.copy_in for t in taskset)
    max_u_all = max(t.copy_out for t in taskset)
    big_m = _big_m(taskset)
    lp_span = lp_exec_span(mode)

    model = MilpModel(f"delay[{task.name},{mode.value},N={n}]")

    # ------------------------------------------------------------------
    # binary structure variables (sparse: only where a schedule may
    # set them, per Constraints 3, 4, 14)
    # ------------------------------------------------------------------
    E = _VarTable(model, "E")
    LE = _VarTable(model, "LE")
    CL = _VarTable(model, "CL")

    for j in others:
        is_lp = j.name in lp
        for k in range(0, n - 1):  # executions live in I_0 .. I_{N-2}
            if is_lp and k >= lp_span:
                break
            E.create(k, j)
            if mode.uses_ls_machinery and j.latency_sensitive:
                LE.create(k, j)

    # Cancelled copy-ins CL^k_j, k in [0, N-3]; lower-priority victims
    # only in I_0 (Constraint 3 / 14); the task under analysis can be a
    # victim too (its copy-in may be cancelled by a higher LS release).
    for j in taskset:
        if not _cancellers(taskset, task, j, mode):
            continue
        span = 1 if j.name in lp else n - 2
        for k in range(0, min(span, n - 2)):
            CL.create(k, j)

    # ------------------------------------------------------------------
    # continuous interval variables
    # ------------------------------------------------------------------
    dma_side_max = max_l_all + max_u_all
    cpu_side_max = max(
        (
            (j.copy_in + j.exec_time)
            if (j.latency_sensitive and mode.uses_ls_machinery)
            else j.exec_time
            for j in others
        ),
        default=0.0,
    )
    deltas: list[Var] = []
    d_exec: list[Var] = []
    d_in: list[Var] = []
    d_out: list[Var] = []
    for k in range(n):
        cpu_cap_k = task.exec_time if k == n - 1 else cpu_side_max
        deltas.append(
            model.continuous(f"D[{k}]", 0.0, max(cpu_cap_k, dma_side_max))
        )
        if k == n - 1:
            # Constraint 12: the last interval executes tau_i exactly.
            d_exec.append(model.continuous(f"De[{k}]", task.exec_time, task.exec_time))
            d_in.append(model.continuous(f"Dl[{k}]", 0.0, max_l_all))
        elif k == n - 2:
            d_exec.append(model.continuous(f"De[{k}]", 0.0, big_m))
            # Constraint 12: second-last copy-in is tau_i's, length l_i.
            d_in.append(model.continuous(f"Dl[{k}]", task.copy_in, task.copy_in))
        else:
            d_exec.append(model.continuous(f"De[{k}]", 0.0, big_m))
            d_in.append(model.continuous(f"Dl[{k}]", 0.0, big_m))
        if k == 0:
            # Constraint 12: first copy-out belongs to an unknown
            # pre-window task.
            d_out.append(model.continuous(f"Du[{k}]", 0.0, max_u_all))
        else:
            d_out.append(model.continuous(f"Du[{k}]", 0.0, big_m))

    # ------------------------------------------------------------------
    # Constraint 5: at most one CPU occupant per interval.
    # ------------------------------------------------------------------
    for k in range(0, n - 1):
        occupants = E.row(k) + LE.row(k)
        if occupants:
            model.add(LinExpr.total(occupants) <= 1, f"C5[{k}]")

    # ------------------------------------------------------------------
    # Constraint 6: at most one copy-in (completed or cancelled) per
    # interval. The completed copy-in of interval k is the execution
    # indicator of interval k+1 (Constraint 1 by substitution).
    # ------------------------------------------------------------------
    for k in range(0, n - 2):
        terms = E.row(k + 1) + CL.row(k)
        if terms:
            model.add(LinExpr.total(terms) <= 1, f"C6[{k}]")

    # ------------------------------------------------------------------
    # Constraint 7: per-task execution budgets.
    # ------------------------------------------------------------------
    for j in others:
        occurrences = E.column(j) + LE.column(j)
        if not occurrences:
            continue
        if j.name in hp:
            budget = interference_budget(j, window, hp_wcrt)
        else:
            budget = 1
        model.add(LinExpr.total(occurrences) <= budget, f"C7[{j.name}]")

    # ------------------------------------------------------------------
    # Constraint 8: an urgent execution in I_{k+1} needs a cancelled
    # copy-in of a task with lower priority than the promoted task in
    # I_k (rules R3/R4/R5; tau_i is in the ready queue throughout).
    # ------------------------------------------------------------------
    for j in others:
        if not j.latency_sensitive or not mode.uses_ls_machinery:
            continue
        for k in range(0, n - 2):
            le_var = LE.get(k + 1, j)
            if le_var is None:
                continue
            victims = [
                CL.get(k, victim)
                for victim in taskset
                if victim.priority > j.priority
            ]
            model.add(
                _lin([(v, 1.0) for v in victims]) >= le_var,
                f"C8[{k},{j.name}]",
            )

    # ------------------------------------------------------------------
    # Cancellation budget (DESIGN.md): each cancellation is triggered
    # by one LS release inside the window.
    # ------------------------------------------------------------------
    cl_vars = CL.all_vars()
    if cl_vars:
        model.add(
            LinExpr.total(cl_vars)
            <= cancellation_budget(taskset, task, window, mode),
            "CLbudget",
        )

    # ------------------------------------------------------------------
    # Constraint 9: CPU time per interval.
    # ------------------------------------------------------------------
    for k in range(0, n - 1):
        expr = _lin(
            [(E.get(k, j), j.exec_time) for j in others]
            + [(LE.get(k, j), j.copy_in + j.exec_time) for j in others]
        )
        model.add(d_exec[k] <= expr, f"C9[{k}]")

    # ------------------------------------------------------------------
    # Constraint 10: DMA copy-in time per interval (completed copy-in
    # of the task executing next interval, or a cancelled one).
    # ------------------------------------------------------------------
    for k in range(0, n - 2):
        expr = _lin(
            [(E.get(k + 1, j), j.copy_in) for j in others]
            + [(CL.get(k, j), j.copy_in) for j in taskset]
        )
        model.add(d_in[k] <= expr, f"C10[{k}]")

    # ------------------------------------------------------------------
    # Constraint 11: DMA copy-out time per interval = output of the
    # interval-before's occupant (Constraint 2 by substitution).
    # ------------------------------------------------------------------
    for k in range(1, n):
        expr = _lin(
            [(E.get(k - 1, j), j.copy_out) for j in others]
            + [(LE.get(k - 1, j), j.copy_out) for j in others]
        )
        model.add(d_out[k] <= expr, f"C11[{k}]")

    # ------------------------------------------------------------------
    # Constraint 13: interval length = max(CPU side, DMA side).
    # The big-M of each inequality only has to cover the *other* side's
    # largest possible value (when alpha deactivates an inequality, the
    # active one already caps Delta_k), which keeps the LP relaxation
    # tight and the branch-and-bound shallow.
    # ------------------------------------------------------------------
    for k in range(n):
        cpu_cap = task.exec_time if k == n - 1 else cpu_side_max
        alpha = model.binary(f"alpha[{k}]")
        model.add(deltas[k] <= d_exec[k] + dma_side_max * alpha, f"C13a[{k}]")
        model.add(
            deltas[k] <= d_in[k] + d_out[k] + cpu_cap * (1 - alpha), f"C13b[{k}]"
        )

    model.maximize(LinExpr.total(deltas))

    return DelayMilp(
        model=model,
        deltas=tuple(deltas),
        num_intervals=n,
        mode=mode,
        window=window,
        stats={
            **model.stats(),
            "E_vars": len(E),
            "LE_vars": len(LE),
            "CL_vars": len(CL),
        },
    )


# ----------------------------------------------------------------------
# LS case (b): tau_i promoted to urgent in I_0 (Sec. V-B case (b))
# ----------------------------------------------------------------------
def _build_case_b(taskset: TaskSet, task: Task) -> DelayMilp:
    """Two intervals: anything in I_0; CPU runs ``l_i + C_i`` in I_1.

    The promotion (R4) requires a cancelled or absent copy-in in I_0,
    and the cancelled victim is necessarily in ``lp(tau_i)`` (any LS
    released in I_0 with higher priority than tau_i would have taken
    the urgency instead), so the I_0 DMA copy-in time is bounded by the
    largest lower-priority copy-in (Constraint 15).
    """
    others = tuple(j for j in taskset if j.name != task.name)
    lp_l = [j.copy_in for j in taskset.lp(task)]
    max_l_victim = max(lp_l, default=0.0)
    max_l_next = max((j.copy_in for j in others), default=0.0)
    max_u_all = max(t.copy_out for t in taskset)
    big_m = _big_m(taskset)

    model = MilpModel(f"delay[{task.name},ls_b]")
    E = _VarTable(model, "E")
    LE = _VarTable(model, "LE")
    for j in others:
        E.create(0, j)
        if j.latency_sensitive:
            LE.create(0, j)

    occupants = E.row(0) + LE.row(0)
    if occupants:
        model.add(LinExpr.total(occupants) <= 1, "C5[0]")

    d0 = model.continuous("D[0]", 0.0, big_m)
    d1 = model.continuous("D[1]", 0.0, big_m)
    d_exec0 = model.continuous("De[0]", 0.0, big_m)
    d_in0 = model.continuous("Dl[0]", 0.0, max_l_victim)
    d_out0 = model.continuous("Du[0]", 0.0, max_u_all)
    # Constraint 15: the CPU side of I_1 is exactly l_i + C_i.
    cpu1 = task.copy_in + task.exec_time
    d_exec1 = model.continuous("De[1]", cpu1, cpu1)
    d_in1 = model.continuous("Dl[1]", 0.0, max_l_next)
    d_out1 = model.continuous("Du[1]", 0.0, big_m)

    model.add(
        d_exec0
        <= _lin(
            [(E.get(0, j), j.exec_time) for j in others]
            + [(LE.get(0, j), j.copy_in + j.exec_time) for j in others]
        ),
        "C9[0]",
    )
    model.add(
        d_out1
        <= _lin(
            [(E.get(0, j), j.copy_out) for j in others]
            + [(LE.get(0, j), j.copy_out) for j in others]
        ),
        "C11[1]",
    )
    for k, (d, de, di, du) in enumerate(
        [(d0, d_exec0, d_in0, d_out0), (d1, d_exec1, d_in1, d_out1)]
    ):
        alpha = model.binary(f"alpha[{k}]")
        model.add(d <= de + big_m * alpha, f"C13a[{k}]")
        model.add(d <= di + du + big_m * (1 - alpha), f"C13b[{k}]")

    model.maximize(d0 + d1)
    return DelayMilp(
        model=model,
        deltas=(d0, d1),
        num_intervals=2,
        mode=AnalysisMode.LS_CASE_B,
        window=0.0,
        stats=model.stats(),
    )
