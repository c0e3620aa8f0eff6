"""Iterative worst-case response-time computation (paper Sec. VI).

The delay MILP of Sec. V is parameterised by a tentative response time
``R`` (through the window ``t = R - C_i - u_i`` that feeds the arrival
curves and the interval count). Starting from the minimum possible
response ``l_i + C_i + u_i``, the MILP is re-solved with the window
induced by its own previous optimum until the value stabilises — the
classical response-time fixpoint, monotone because larger windows only
enlarge the feasible schedule set.

For LS tasks the bound is the maximum of case (a) (not promoted —
iterated MILP) and case (b) (promoted in ``I_0`` — window-independent,
solved once and cross-checkable against its closed form).

Cost model
----------
The integer solve is the expensive step, so the driver works through a
cascade of strictly cheaper sufficient conditions before reaching it:

1. **vectorised closed form** — every task's conservative fixpoint,
   batched over the whole set with numpy
   (:func:`~repro.analysis.proposed.closed_form.closed_form_delay_bounds_batch`);
2. **batched LP screen** — the deadline-window models of the tasks the
   closed form could not prove, LP-relaxed and solved as one
   block-diagonal LP (:func:`repro.milp.relaxation.screen_batch`);
3. **LP fixpoint** — the response-time iteration evaluated on LP bounds
   only; it dominates the MILP iteration termwise, so a converged LP
   fixpoint within the deadline proves schedulability;
4. **warm-started integer fixpoint** — one compiled model is kept alive
   across iterations (rows retargeted in place, see
   :func:`~repro.analysis.proposed.formulation.update_delay_milp`), and
   at each new window the LP relaxation is checked against the
   incumbent first: ``lp <= incumbent`` squeezes the optimum to exactly
   the incumbent (monotone fixpoint from below), so the iteration is
   converged without the integer solve — and with the bit-identical
   response the solved path would have produced;
5. **deadline-targeted integer solve** — a verdict never needs a delay
   value above ``D - u``, only the fact that it is there. Every integer
   solve on the verdict path carries the objective target
   ``theta = D - u`` (plus :data:`TARGET_SLACK`), and HiGHS stops at
   the first incumbent beyond it instead of proving the optimum. Such a
   stop only ever concludes "exceeds the deadline"; every
   "schedulable" verdict still rests on a screen bound or an exact
   optimum. ``response_time``/``analyze`` pass no target, so WCRT
   values stay exact.

Every memoised value is tagged (``("milp", ...)`` exact optimum /
``("lb", theta)`` target-stop lower bound / ``("lp", bound)``
screening bound), and the analysis cache ranks the tags so a bound
never shadows an exact optimum; see :mod:`repro.analysis.cache`. An
``lb`` entry answers any later target query at or below its bound
without a solve.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Callable

from repro.analysis.cache import (
    AnalysisCache,
    active_cache,
    case_b_key,
    delay_milp_key,
)
from repro.analysis.interface import AnalysisOptions, TaskResult, TaskSetResult
from repro.analysis.proposed.closed_form import (
    closed_form_delay_bound,
    closed_form_delay_bounds_batch,
    ls_case_b_bound,
)
from repro.analysis.proposed.formulation import (
    AnalysisMode,
    DelayMilp,
    build_delay_milp,
    cancellation_budget,
    update_delay_milp,
)
from repro.analysis.proposed.intervals import (
    interference_budget,
    interval_count_ls,
    interval_count_nls,
)
from repro.errors import (
    BackendUnavailableError,
    InfeasibleModelError,
    SolverError,
    SolverTimeoutError,
    UnboundedModelError,
)
from repro.milp.highs import HighsBackend
from repro.milp.model import MilpBackend, MilpModel
from repro.milp.relaxation import LpRelaxationBackend, screen_batch
from repro.milp.solution import DegradationLevel, MilpSolution, SolveStatus
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.obs import events as obs
from repro.types import Time

BackendFactory = Callable[[], MilpBackend]

#: Margin of a verdict's objective target above ``D - u``. It keeps a
#: target stop strictly beyond the verdicts' 1e-9 deadline tolerance,
#: so a stop and an exact solve decide every verdict the same way.
TARGET_SLACK = 1e-6


def _default_backend_factory(options: AnalysisOptions) -> BackendFactory:
    return lambda: HighsBackend(time_limit=options.time_limit)


def _usable(solution: MilpSolution) -> bool:
    """Whether a backend's answer may stand: no error status, and a
    finite objective whenever it reports one."""
    if solution.status is SolveStatus.ERROR:
        return False
    return not solution.status.has_solution or math.isfinite(
        solution.objective
    )


class _IterationOutcome:
    """Internal result of one mode's fixpoint iteration."""

    __slots__ = ("wcrt", "iterations", "converged", "details")

    def __init__(
        self, wcrt: Time, iterations: int, converged: bool, details: dict
    ) -> None:
        self.wcrt = wcrt
        self.iterations = iterations
        self.converged = converged
        self.details = details


class _IncrementalSlot:
    """Holds one fixpoint's live model across iterations.

    The driver keeps the previously built :class:`DelayMilp` here; when
    the next window preserves the interval count, the model is
    retargeted in place instead of rebuilt (and its cached compilation
    is patched, not re-lowered).
    """

    __slots__ = ("built",)

    def __init__(self) -> None:
        self.built: DelayMilp | None = None


class _DelayEval:
    """One evaluation of the delay map ``f`` at a window.

    ``objective`` is the MILP optimum (the delaying-interval length;
    add ``copy_out`` for the response), except when ``proved_met`` is
    set: then only the LP relaxation ran and ``objective`` is its
    over-approximating bound, already known to fit the deadline — or
    when ``target_reached`` is set: then the solve stopped at its
    objective target and ``objective`` is a lower bound beyond it.
    """

    __slots__ = (
        "objective", "num_intervals", "stats", "degradation",
        "cached", "proved_met", "target_reached",
    )

    def __init__(
        self,
        objective: float,
        num_intervals: int,
        stats: dict,
        degradation: int,
        cached: bool,
        proved_met: bool = False,
        target_reached: bool = False,
    ) -> None:
        self.objective = objective
        self.num_intervals = num_intervals
        self.stats = stats
        self.degradation = degradation
        self.cached = cached
        self.proved_met = proved_met
        self.target_reached = target_reached


class ProposedAnalysis:
    """WCRT analysis for the paper's protocol (rules R1-R6).

    Args:
        options: Iteration/solver knobs.
        backend_factory: Callable producing a fresh MILP backend per
            solve (defaults to HiGHS configured from ``options``).
        method: ``"milp"`` (the paper's analysis), ``"lp"`` (the LP
            relaxation of the same formulation — a safe, more
            pessimistic bound at one LP solve per iteration), or
            ``"closed_form"`` (the fastest, most conservative screen).
        carry_refinement: Opt-in improvement over the paper's
            Theorem 1: charge each higher-priority task
            ``eta_j(t + R_j)`` interfering jobs (jitter-aware, using
            hierarchically computed hp WCRTs) instead of
            ``eta_j(t) + 1``. Off by default for paper fidelity.
    """

    protocol = "proposed"
    #: Mode pair used for the task under analysis; subclasses override
    #: to reuse the driver for other protocols (see WaslyAnalysis).
    _nls_mode = AnalysisMode.NLS
    _supports_ls = True

    def __init__(
        self,
        options: AnalysisOptions | None = None,
        backend_factory: BackendFactory | None = None,
        method: str = "milp",
        carry_refinement: bool = False,
        cache: AnalysisCache | None = None,
    ) -> None:
        if method not in ("milp", "lp", "closed_form"):
            raise ValueError(f"unknown method {method!r}")
        self.options = options or AnalysisOptions()
        if backend_factory is not None:
            self.backend_factory = backend_factory
        elif method == "lp":
            self.backend_factory = LpRelaxationBackend
        else:
            self.backend_factory = _default_backend_factory(self.options)
        self.method = method
        if cache is not None:
            self.cache = cache
        else:
            scoped = active_cache()
            self.cache = scoped if scoped is not None else AnalysisCache()
        #: Opt-in deviation from the paper: charge higher-priority
        #: interference with the jitter-aware bound eta(t + R_j)
        #: instead of Theorem 1's eta(t) + 1 (see intervals.py). The
        #: hp WCRTs are computed hierarchically with this same
        #: analysis and memoised per task set.
        self.carry_refinement = carry_refinement
        self._wcrt_cache: dict[tuple[TaskSet, str], Time] = {}
        # Scope-local screening memos fed by _screen_taskset and
        # consumed by the per-task verdicts (counter bumps happen at
        # consumption, so early-exiting sweeps surface the same stats
        # sequentially and in parallel).
        self._screened: set[TaskSet] = set()
        self._screen_memo: dict[tuple[TaskSet, str, str], float] = {}
        self._lp_proved: dict[tuple[TaskSet, str, str], bool] = {}

    # ------------------------------------------------------------------
    def _hp_wcrt_map(
        self, taskset: TaskSet, task: Task
    ) -> dict[str, Time] | None:
        """Memoised higher-priority WCRTs for the carry refinement.

        Computed hierarchically (highest priority first) with this
        same analysis; an unschedulable or non-converged hp bound is
        simply omitted, falling back to the paper's ``eta(t)+1`` for
        that task (always safe).
        """
        if not self.carry_refinement:
            return None
        result: dict[str, Time] = {}
        for hp_task in taskset.hp(task):  # priority order
            key = (taskset, hp_task.name)
            if key not in self._wcrt_cache:
                self._wcrt_cache[key] = self.response_time(
                    taskset, hp_task
                ).wcrt
            wcrt = self._wcrt_cache[key]
            if math.isfinite(wcrt):
                result[hp_task.name] = wcrt
        return result

    def response_time(self, taskset: TaskSet, task: Task) -> TaskResult:
        """WCRT bound for one task (dispatches on its LS mark)."""
        taskset.require_member(task)
        if self._supports_ls and task.latency_sensitive:
            return self._response_time_ls(taskset, task)
        return self._finalize(
            task, self._iterate(taskset, task, self._nls_mode)
        )

    def _response_time_ls(self, taskset: TaskSet, task: Task) -> TaskResult:
        case_a = self._iterate(taskset, task, AnalysisMode.LS_CASE_A)
        if self.method == "milp":
            case_b_wcrt = self._solve_case_b(taskset, task)
        else:
            case_b_wcrt = ls_case_b_bound(taskset, task)
        wcrt = max(case_a.wcrt, case_b_wcrt)
        details = dict(case_a.details)
        details["case_a_wcrt"] = case_a.wcrt
        details["case_b_wcrt"] = case_b_wcrt
        return TaskResult(
            task=task,
            wcrt=wcrt,
            iterations=case_a.iterations,
            converged=case_a.converged,
            details=details,
        )

    def _closed_form_objective(
        self, taskset: TaskSet, task: Task, mode: AnalysisMode
    ) -> float:
        """Last-resort safe objective for one mode's delay MILP.

        The closed-form WCRT upper-bounds the MILP fixpoint, hence also
        the per-window MILP optimum (plus copy-out), for every window
        the iteration can visit — so substituting it keeps the analysis
        an upper bound when every solver rung has failed.
        """
        if mode is AnalysisMode.LS_CASE_B:
            return ls_case_b_bound(taskset, task) - task.copy_out
        blocking = 2 if mode in (AnalysisMode.NLS, AnalysisMode.WASLY) else 1
        return (
            closed_form_delay_bound(
                taskset,
                task,
                blocking_intervals=blocking,
                urgent_possible=mode.uses_ls_machinery,
            )
            - task.copy_out
        )

    def _solve_model(
        self,
        model: MilpModel,
        taskset: TaskSet,
        task: Task,
        mode: AnalysisMode,
        target: float | None = None,
    ) -> MilpSolution:
        """Solve one delay MILP, degrading safely when the solver fails.

        The chain is the exact solve (HiGHS walks its own option ladder
        first), then the LP relaxation of the same compiled model, then
        :meth:`_closed_form_objective`. For a delay *maximisation* each
        rung upper-bounds the previous one's optimum, so a degraded
        value is more pessimistic, never optimistic; the rung that
        answered is recorded in :attr:`MilpSolution.degradation`. A
        solve fails when its backend raises
        :class:`BackendUnavailableError` or
        :class:`SolverTimeoutError`, or returns an error status or a
        non-finite objective.
        """
        try:
            solution = model.solve(self.backend_factory(), target=target)
        except (BackendUnavailableError, SolverTimeoutError):
            pass
        else:
            if _usable(solution):
                return solution
        relaxed = LpRelaxationBackend().solve_compiled(model.compile())
        if relaxed.status.has_solution and math.isfinite(relaxed.objective):
            return dataclasses.replace(
                relaxed, degradation=DegradationLevel.LP_RELAXATION
            )
        return MilpSolution(
            status=SolveStatus.TIME_LIMIT,
            objective=self._closed_form_objective(taskset, task, mode),
            backend="closed_form",
            degradation=DegradationLevel.CLOSED_FORM,
        )

    def _solver_signature(self) -> tuple:
        """Solver-relevant options included in every cache key.

        Two analyses whose signatures differ must never share a cached
        objective: a different backend or time limit may return a
        different (still sound) bound.
        """
        sig = getattr(self, "_solver_sig", None)
        if sig is None:
            factory = self.backend_factory
            backend_tag = getattr(
                factory, "name", None
            ) or getattr(factory, "__qualname__", repr(factory))
            sig = (
                self.method,
                str(backend_tag),
                self.options.time_limit,
                # Protocol-specific knobs: neither shapes a proposed/
                # WASLY MILP today, but both shape the threshold and
                # regulated analyses that reuse this signature — and
                # entries must never collide across protocols.
                self.options.preemption_thresholds,
                repr(self.options.regulation),
            )
            self._solver_sig = sig
        return sig

    def _window_signature(
        self,
        taskset: TaskSet,
        task: Task,
        window: Time,
        mode: AnalysisMode,
        hp_wcrt: dict[str, Time] | None,
    ) -> tuple[int, tuple[int, ...], int]:
        """The integer staircases through which the window enters the MILP.

        Returns ``(N_i(t), per-task budgets, cancellation budget)`` —
        together they carry *every* dependence of the formulation on
        ``t``, so two windows with equal signatures build the identical
        model (the fact the memo key relies on).
        """
        count = (
            interval_count_ls
            if mode is AnalysisMode.LS_CASE_A
            else interval_count_nls
        )
        n = count(
            taskset, task, window, hp_wcrt,
            urgent_possible=mode.uses_ls_machinery,
        )
        budgets = tuple(
            interference_budget(j, window, hp_wcrt)
            if j.priority < task.priority
            else 1
            for j in taskset
            if j.name != task.name
        )
        return n, budgets, cancellation_budget(taskset, task, window, mode)

    def _delay_key(
        self,
        taskset: TaskSet,
        task: Task,
        window: Time,
        mode: AnalysisMode,
        hp_wcrt: dict[str, Time] | None,
    ) -> tuple[str, int]:
        """Cache digest and interval count of one windowed delay MILP."""
        n, budgets, cl_budget = self._window_signature(
            taskset, task, window, mode, hp_wcrt
        )
        key = delay_milp_key(
            taskset, task, mode.value, n, budgets, cl_budget,
            hp_wcrt, self._solver_signature(),
        )
        return key, n

    def _obtain_model(
        self,
        slot: "_IncrementalSlot | None",
        taskset: TaskSet,
        task: Task,
        window: Time,
        mode: AnalysisMode,
        hp_wcrt: dict[str, Time] | None,
    ) -> DelayMilp:
        """Build the delay MILP — incrementally when the slot allows it.

        A live model whose interval count matches is retargeted in
        place (``milp.incremental.update``); an interval-count change
        forces a rebuild (``milp.incremental.rebuild``). Either way the
        slot ends up holding the model used, ready for the next
        iteration.
        """
        built = None
        if slot is not None and slot.built is not None:
            built = update_delay_milp(slot.built, taskset, task, window, hp_wcrt)
            obs.emit(
                "milp.incremental.update"
                if built is not None
                else "milp.incremental.rebuild",
                task=task.name,
                mode=mode.value,
            )
            if built is not None:
                # This iteration starts from the previous iteration's
                # compiled model (RHS retarget, no rebuild) — the warm
                # start the stats table reports.
                self.cache.bump("milp_warm_starts")
        if built is None:
            built = build_delay_milp(taskset, task, window, mode, hp_wcrt=hp_wcrt)
        if slot is not None:
            slot.built = built
        return built

    def _lp_relax(
        self, built: DelayMilp, task: Task, mode: AnalysisMode
    ) -> MilpSolution | None:
        """LP-relax one built model (the screening/warm-start tier)."""
        try:
            relaxed = LpRelaxationBackend().solve_compiled(built.model.compile())
        except SolverError:
            return None  # screen only; the exact path decides
        self.cache.bump("lp_solves")
        obs.emit(
            "solve.screen",
            task=task.name,
            dur=relaxed.runtime_seconds,
            mode=mode.value,
            status=relaxed.status.value,
            rows=built.stats.get("constraints"),
            vars=built.stats.get("variables"),
        )
        return relaxed

    def _delay_objective(
        self,
        taskset: TaskSet,
        task: Task,
        window: Time,
        mode: AnalysisMode,
        hp_wcrt: dict[str, Time] | None,
        lp_screen_deadline: Time | None = None,
        slot: "_IncrementalSlot | None" = None,
        warm_objective: float | None = None,
        target: float | None = None,
    ) -> _DelayEval:
        """Evaluate the delay map ``f`` at ``window``, memoised.

        A cache hit on an exact (``milp``-tagged) entry returns the
        objective a fresh build-and-solve would produce (the key
        digests the MILP's full semantic content, see
        :mod:`repro.analysis.cache`). Degraded solutions — where
        :meth:`_solve_model` substituted a weaker bound — are never
        stored, so a retry keeps its chance of a sharper value.

        With ``lp_screen_deadline`` set (verdict path, exact-MILP
        method only), an ``lp``-tagged bound — cached or freshly
        relaxed — that fits the deadline skips the integer solve and
        the eval comes back ``proved_met`` (relaxing a maximisation can
        only raise the objective).

        With ``warm_objective`` set (fixpoint path: the incumbent
        objective of the previous iteration), an LP bound at or below
        the incumbent proves the new window's optimum *equals* the
        incumbent: the optimum cannot drop below it (the solved path
        would have taken the convergence branch and kept the incumbent
        response either way), and the relaxation caps it from above.
        The integer solve is skipped and the returned objective is
        bit-identical to the solved path's.

        With ``target`` set (verdict path, exact-MILP method only), the
        integer solve may stop at the first incumbent beyond the target;
        the eval then comes back ``target_reached`` and the stop is
        memoised as ``("lb", target)``. A cached lower bound at or above
        a later query's target answers it without a solve.
        """
        key, n = self._delay_key(taskset, task, window, mode, hp_wcrt)
        entry = self.cache.get(key)
        lp_bound: float | None = None
        if isinstance(entry, tuple) and entry:
            if entry[0] == "milp":
                _, objective, num_intervals, stats, degradation = entry
                return _DelayEval(
                    objective,
                    int(num_intervals),
                    dict(stats),
                    int(degradation),
                    cached=True,
                )
            if entry[0] == "lb" and target is not None and target <= entry[1]:
                return _DelayEval(
                    entry[1], n, {}, 0, cached=True, target_reached=True
                )
            if entry[0] == "lp":
                lp_bound = entry[1]
        screening = lp_screen_deadline is not None and self.method == "milp"
        if lp_bound is not None:
            if (
                screening
                and lp_bound + task.copy_out <= lp_screen_deadline + 1e-9
            ):
                self.cache.bump("lp_screens")
                return _DelayEval(
                    lp_bound, n, {}, 0, cached=True, proved_met=True
                )
            if warm_objective is not None and lp_bound <= warm_objective:
                self.cache.bump("milp_warm_starts")
                return _DelayEval(warm_objective, n, {}, 0, cached=True)
        built = self._obtain_model(slot, taskset, task, window, mode, hp_wcrt)
        if (
            warm_objective is not None
            and lp_bound is None
            and self.method == "milp"
        ):
            relaxed = self._lp_relax(built, task, mode)
            if relaxed is not None and relaxed.status is SolveStatus.OPTIMAL:
                lp_bound = relaxed.objective
                self.cache.put(key, ("lp", lp_bound))
                if lp_bound <= warm_objective:
                    self.cache.bump("milp_warm_starts")
                    return _DelayEval(
                        warm_objective,
                        built.num_intervals,
                        dict(built.stats),
                        0,
                        cached=False,
                    )
        if screening and lp_bound is None:
            # Middle screening tier: the LP relaxation of the same
            # formulation is a safe over-approximation — if even it
            # fits the deadline, the MILP bound does too, and the
            # integer solve never runs. The model is built exactly
            # once and shared with the integer solve below.
            relaxed = self._lp_relax(built, task, mode)
            if relaxed is not None and relaxed.status is SolveStatus.OPTIMAL:
                self.cache.put(key, ("lp", relaxed.objective))
                if (
                    relaxed.objective + task.copy_out
                    <= lp_screen_deadline + 1e-9
                ):
                    self.cache.bump("lp_screens")
                    return _DelayEval(
                        relaxed.objective,
                        built.num_intervals,
                        dict(built.stats),
                        0,
                        cached=False,
                        proved_met=True,
                    )
        solution = self._solve_model(
            built.model, taskset, task, mode, target=target
        )
        self.cache.bump("lp_solves" if self.method == "lp" else "milp_solves")
        obs.emit(
            "solve",
            task=task.name,
            dur=solution.runtime_seconds,
            mode=mode.value,
            method=self.method,
            status=solution.status.value,
            degradation=int(solution.degradation),
            rows=built.stats.get("constraints"),
            vars=built.stats.get("variables"),
        )
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleModelError(
                f"delay MILP infeasible for {task.name} (mode={mode.value}, "
                f"window={window}); this indicates a formulation bug"
            )
        if solution.status is SolveStatus.UNBOUNDED:
            raise UnboundedModelError(
                f"delay MILP unbounded for {task.name} (mode={mode.value})"
            )
        degradation = solution.degradation
        reached = solution.status is SolveStatus.TARGET_REACHED
        if reached or (
            target is not None
            and solution.status.has_solution
            and solution.objective > target
        ):
            # Counted by outcome, not by how HiGHS got there: a retry
            # with other options (or a presolve that finishes the
            # model) may prove the optimum instead of stopping early.
            self.cache.bump("milp_target_stops")
        if reached:
            if not degradation:
                self.cache.put(key, ("lb", solution.objective))
            return _DelayEval(
                solution.objective,
                built.num_intervals,
                dict(built.stats),
                degradation,
                cached=False,
                target_reached=True,
            )
        if not degradation:
            self.cache.put(
                key,
                (
                    "milp",
                    solution.objective,
                    built.num_intervals,
                    dict(built.stats),
                    int(degradation),
                ),
            )
        return _DelayEval(
            solution.objective,
            built.num_intervals,
            dict(built.stats),
            degradation,
            cached=False,
        )

    def _solve_case_b(self, taskset: TaskSet, task: Task) -> Time:
        key = case_b_key(taskset, task, self._solver_signature())
        entry = self.cache.get(key)
        if entry is not None:
            return entry + task.copy_out
        built = build_delay_milp(taskset, task, 0.0, AnalysisMode.LS_CASE_B)
        solution = self._solve_model(
            built.model, taskset, task, AnalysisMode.LS_CASE_B
        )
        self.cache.bump("lp_solves" if self.method == "lp" else "milp_solves")
        obs.emit(
            "solve",
            task=task.name,
            dur=solution.runtime_seconds,
            mode=AnalysisMode.LS_CASE_B.value,
            method=self.method,
            status=solution.status.value,
            degradation=int(solution.degradation),
            rows=built.stats.get("constraints"),
            vars=built.stats.get("variables"),
        )
        if solution.status is SolveStatus.INFEASIBLE:
            raise InfeasibleModelError(f"case-(b) MILP infeasible for {task.name}")
        if solution.status is SolveStatus.UNBOUNDED:
            raise UnboundedModelError(f"case-(b) MILP unbounded for {task.name}")
        if not solution.degradation:
            self.cache.put(key, solution.objective)
        return solution.objective + task.copy_out

    # ------------------------------------------------------------------
    def _iterate(
        self,
        taskset: TaskSet,
        task: Task,
        mode: AnalysisMode,
        target: float | None = None,
    ) -> _IterationOutcome:
        """The response-time fixpoint of one mode.

        ``target`` (verdict path only) is handed to every integer solve;
        a stop at it ends the iteration with a response beyond the
        deadline, which is all the verdict reads.
        """
        options = self.options
        if self.method == "closed_form":
            blocking = 2 if mode in (AnalysisMode.NLS, AnalysisMode.WASLY) else 1
            wcrt = closed_form_delay_bound(
                taskset,
                task,
                blocking_intervals=blocking,
                urgent_possible=mode.uses_ls_machinery,
                deadline_cap=(task.deadline if options.stop_at_deadline else None),
            )
            return _IterationOutcome(
                wcrt, 1, not math.isinf(wcrt), {"method": "closed_form"}
            )

        response = task.total_cost
        details: dict = {
            "method": "milp", "mode": mode.value, "solves": 0, "cache_hits": 0,
        }
        converged = False
        iterations = 0
        hp_wcrt = self._hp_wcrt_map(taskset, task)
        slot = _IncrementalSlot() if options.screening else None
        prev_objective: float | None = None
        for iterations in range(1, options.max_iterations + 1):
            window = max(response - task.exec_time - task.copy_out, task.copy_in)
            with obs.span(
                "fixpoint.iteration",
                task=task.name,
                mode=mode.value,
                iteration=iterations,
            ):
                evaluated = self._delay_objective(
                    taskset, task, window, mode, hp_wcrt,
                    slot=slot, warm_objective=prev_objective, target=target,
                )
            if evaluated.cached:
                details["cache_hits"] += 1
            else:
                details["solves"] += 1
            details["num_intervals"] = evaluated.num_intervals
            details.setdefault("milp_stats", evaluated.stats)
            if evaluated.degradation:
                details["degradation"] = max(
                    details.get("degradation", evaluated.degradation),
                    evaluated.degradation,
                )
            new_response = evaluated.objective + task.copy_out
            if evaluated.target_reached:
                response = new_response  # a lower bound beyond the deadline
                break
            if new_response <= response + options.convergence_eps:
                response = max(response, new_response)
                converged = True
                break
            response = new_response
            if options.screening:
                prev_objective = evaluated.objective
            if not math.isfinite(response):
                break  # a degraded bound diverged; report unschedulable
            if options.stop_at_deadline and response > task.deadline:
                break
        return _IterationOutcome(response, iterations, converged, details)

    @staticmethod
    def _finalize(task: Task, outcome: _IterationOutcome) -> TaskResult:
        return TaskResult(
            task=task,
            wcrt=outcome.wcrt,
            iterations=outcome.iterations,
            converged=outcome.converged,
            details=outcome.details,
        )

    # ------------------------------------------------------------------
    # fast schedulability verdicts
    # ------------------------------------------------------------------
    def _solve_delay(
        self, taskset: TaskSet, task: Task, window: Time, mode: AnalysisMode
    ) -> Time:
        """One MILP evaluation of the delay map ``f`` at ``window``."""
        evaluated = self._delay_objective(
            taskset, task, window, mode, self._hp_wcrt_map(taskset, task)
        )
        return evaluated.objective + task.copy_out

    def _mode_for(self, task: Task) -> AnalysisMode:
        """The windowed analysis mode a task's verdict iterates."""
        if self._supports_ls and task.latency_sensitive:
            return AnalysisMode.LS_CASE_A
        return self._nls_mode

    def _screen_taskset(self, taskset: TaskSet) -> None:
        """Run the batched screening tiers once per task set.

        Tier 1 evaluates every task's conservative closed-form fixpoint
        as a single vectorised batch; tier 2 LP-relaxes the
        deadline-window models of the tasks tier 1 could not prove and
        solves them as one block-diagonal LP. Outcomes land in
        scope-local memos consumed by :meth:`_verdict_mode` — counter
        bumps happen at consumption, so a sweep that stops at its first
        unschedulable task surfaces identical stats sequentially and in
        parallel. Batch-derived LP bounds are persisted like any other
        screening bound: the block-diagonal LP decomposes exactly, any
        valid relaxation bound proves conservatively, and a failed
        screen always falls through to the exact solve — so verdicts
        cannot depend on which batch a bound came from, and a warm run
        skips the screening LPs entirely.
        """
        if taskset in self._screened or not self.options.screening:
            return
        self._screened.add(taskset)
        modes = {task.name: self._mode_for(task) for task in taskset}
        groups: dict[tuple[int, bool], list[Task]] = {}
        for task in taskset:
            mode = modes[task.name]
            blocking = 2 if mode in (AnalysisMode.NLS, AnalysisMode.WASLY) else 1
            groups.setdefault(
                (blocking, mode.uses_ls_machinery), []
            ).append(task)
        survivors: list[Task] = []
        for (blocking, urgent), tasks in groups.items():
            bounds = closed_form_delay_bounds_batch(
                taskset,
                tasks,
                [blocking] * len(tasks),
                urgent,
                [t.deadline for t in tasks],
            )
            for task, bound in zip(tasks, bounds):
                mode = modes[task.name]
                self._screen_memo[(taskset, task.name, mode.value)] = float(
                    bound
                )
                if (
                    float(bound) > task.deadline + 1e-9
                    and not task.trivially_unschedulable
                ):
                    survivors.append(task)
        if self.method != "milp" or not survivors:
            return
        batch: list[tuple[Task, AnalysisMode, str, DelayMilp]] = []
        for task in sorted(survivors, key=lambda t: t.priority):
            mode = modes[task.name]
            hp_wcrt = self._hp_wcrt_map(taskset, task)
            window_d = max(
                task.deadline - task.exec_time - task.copy_out, task.copy_in
            )
            key, _ = self._delay_key(taskset, task, window_d, mode, hp_wcrt)
            if self.cache.get(key) is not None:
                continue  # a previous run or iteration knows this window
            built = build_delay_milp(
                taskset, task, window_d, mode, hp_wcrt=hp_wcrt
            )
            batch.append((task, mode, key, built))
        if not batch:
            return
        start = time.perf_counter()
        try:
            bounds = screen_batch(
                [built.model.compile() for *_, built in batch]
            )
        except SolverError:
            return  # screening only; the per-task exact path decides
        self.cache.bump("lp_solves", len(batch))
        obs.emit(
            "solve.screen_batch",
            dur=time.perf_counter() - start,
            size=len(batch),
        )
        for (task, mode, key, built), bound in zip(batch, bounds):
            if bound is None:
                continue
            self.cache.put(key, ("lp", float(bound)))
            if bound + task.copy_out <= task.deadline + 1e-9:
                self._lp_proved[(taskset, task.name, mode.value)] = True

    def _lp_fixpoint_leq(
        self,
        taskset: TaskSet,
        task: Task,
        mode: AnalysisMode,
        hp_wcrt: dict[str, Time] | None,
    ) -> bool:
        """Screen: does the LP-relaxed fixpoint stay within the deadline?

        Iterates the response-time fixpoint with every evaluation of
        the delay map replaced by its LP-relaxation bound (or an exact
        cached optimum, which is only sharper). The LP map dominates
        the MILP map pointwise and both are monotone in the window, so
        this iteration dominates the integer iteration termwise — a
        converged LP fixpoint within the deadline proves the task
        schedulable without a single integer solve. Inconclusive
        whenever a relaxation fails or the iteration leaves the
        deadline; the caller then falls back to the exact fixpoint.
        A cached ``lb`` entry beyond the deadline is inconclusive at
        once: the LP bound there is at least as large, so the iteration
        would leave the deadline anyway.
        """
        if self.method != "milp":
            return False
        options = self.options
        response = task.total_cost
        slot = _IncrementalSlot()
        for _ in range(options.max_iterations):
            window = max(
                response - task.exec_time - task.copy_out, task.copy_in
            )
            key, _ = self._delay_key(taskset, task, window, mode, hp_wcrt)
            entry = self.cache.get(key)
            bound: float | None = None
            if isinstance(entry, tuple) and entry:
                if entry[0] in ("milp", "lp"):
                    bound = entry[1]
                elif (
                    entry[0] == "lb"
                    and entry[1] + task.copy_out > task.deadline + 1e-9
                ):
                    return False
            if bound is None:
                built = self._obtain_model(
                    slot, taskset, task, window, mode, hp_wcrt
                )
                relaxed = self._lp_relax(built, task, mode)
                if relaxed is None or relaxed.status is not SolveStatus.OPTIMAL:
                    return False
                bound = relaxed.objective
                self.cache.put(key, ("lp", bound))
            new_response = bound + task.copy_out
            if new_response <= response + options.convergence_eps:
                return max(response, new_response) <= task.deadline + 1e-9
            response = new_response
            if not math.isfinite(response) or response > task.deadline:
                return False
        return False

    def _verdict_mode(
        self, taskset: TaskSet, task: Task, mode: AnalysisMode
    ) -> bool:
        """Fast schedulability verdict for one mode.

        Identical in outcome to iterating the fixpoint, but cheaper —
        the screening cascade of the module docstring applied to one
        task:

        1. a conservative closed-form bound within the deadline proves
           schedulability without any MILP (batched per task set by
           :meth:`_screen_taskset`, recomputed scalar otherwise);
        2. an LP relaxation at the deadline-induced window
           ``t_D = D - C - u`` within the deadline proves it with no
           integer solve (batched when the screen pre-ran, solved
           individually otherwise): the response map ``f`` is monotone,
           so ``f(D) <= D`` makes ``D`` a pre-fixpoint and the least
           fixpoint (the WCRT bound) is ``<= D``;
        3. one integer evaluation at ``t_D`` decides the same way;
        4. the LP-only fixpoint screen proves schedulability when it
           converges within the deadline;
        5. otherwise the standard bottom-up iteration decides.

        The integer solves of tiers 3 and 5 carry the objective target
        ``D - u + TARGET_SLACK`` (tier 5 only with ``stop_at_deadline``,
        the only time it stops at the deadline): past it the solve may
        stop without proving the optimum, which changes no verdict.

        ``options.screening=False`` skips tiers 1-4 entirely (for the
        exact-MILP method; the closed form *is* the decision procedure
        of ``method="closed_form"`` and always runs) and decides every
        verdict with tier 5 — the unscreened baseline (EXPERIMENTS.md,
        "Unit store: cold vs warm runs", records it on reduced fig2a).
        Every skipped tier only ever
        *proves* schedulability the iteration would also prove, so the
        verdict is identical either way.
        """
        if task.trivially_unschedulable:
            return False
        if self.options.screening or self.method == "closed_form":
            screen = self._screen_memo.get((taskset, task.name, mode.value))
            if screen is None:
                blocking = (
                    2 if mode in (AnalysisMode.NLS, AnalysisMode.WASLY) else 1
                )
                screen = closed_form_delay_bound(
                    taskset,
                    task,
                    blocking_intervals=blocking,
                    urgent_possible=mode.uses_ls_machinery,
                    deadline_cap=task.deadline,
                )
            if screen <= task.deadline + 1e-9:
                self.cache.bump("closed_form_screens")
                return True
        if self.method == "closed_form":
            return False
        # Integer solves of a verdict stop once f exceeds D - u. The
        # fixpoint only reads that when it stops at the deadline.
        theta = None
        if self.method == "milp":
            theta = task.deadline - task.copy_out + TARGET_SLACK
        iterate_target = theta if self.options.stop_at_deadline else None
        if not self.options.screening:
            outcome = self._iterate(taskset, task, mode, iterate_target)
            return outcome.wcrt <= task.deadline + 1e-9
        if self._lp_proved.pop((taskset, task.name, mode.value), False):
            self.cache.bump("screened_out")
            return True
        hp_wcrt = self._hp_wcrt_map(taskset, task)
        window_d = max(
            task.deadline - task.exec_time - task.copy_out, task.copy_in
        )
        evaluated = self._delay_objective(
            taskset,
            task,
            window_d,
            mode,
            hp_wcrt,
            lp_screen_deadline=task.deadline,
            target=theta,
        )
        if evaluated.proved_met:
            return True
        if evaluated.objective + task.copy_out <= task.deadline + 1e-9:
            return True
        if self.options.screening and self._lp_fixpoint_leq(
            taskset, task, mode, hp_wcrt
        ):
            self.cache.bump("screened_out")
            return True
        outcome = self._iterate(taskset, task, mode, iterate_target)
        return outcome.wcrt <= task.deadline + 1e-9

    def verdict(self, taskset: TaskSet, task: Task) -> bool:
        """Schedulability verdict for one task (no WCRT value).

        Gives exactly the same answer as
        ``self.response_time(taskset, task).schedulable`` but typically
        needs zero or one MILP solve instead of a full fixpoint.
        """
        taskset.require_member(task)
        if self._supports_ls and task.latency_sensitive:
            if self.method == "milp":
                # Case (b) has an exact closed form (cross-checked
                # against the MILP by the formulation tests); within
                # the deadline it already proves this case, so the
                # integer solve is screened out.
                if (
                    self.options.screening
                    and ls_case_b_bound(taskset, task) <= task.deadline + 1e-9
                ):
                    self.cache.bump("screened_out")
                else:
                    case_b = self._solve_case_b(taskset, task)
                    if case_b > task.deadline + 1e-9:
                        return False
            else:
                if ls_case_b_bound(taskset, task) > task.deadline + 1e-9:
                    return False
            return self._verdict_mode(taskset, task, AnalysisMode.LS_CASE_A)
        return self._verdict_mode(taskset, task, self._nls_mode)

    def first_unschedulable(self, taskset: TaskSet) -> Task | None:
        """Highest-priority task whose verdict is negative, or None."""
        self._screen_taskset(taskset)
        for task in taskset:  # TaskSet iterates in priority order
            if not self.verdict(taskset, task):
                return task
        return None

    # ------------------------------------------------------------------
    def analyze(self, taskset: TaskSet) -> TaskSetResult:
        """Analyse every task in the set (LS marks taken as given)."""
        results = tuple(self.response_time(taskset, t) for t in taskset)
        return TaskSetResult(
            taskset=taskset, results=results, protocol=self.protocol
        )

    def is_schedulable(self, taskset: TaskSet) -> bool:
        """All deadlines proven, with cheap necessary pre-checks.

        The CPU must fit every execution phase and the DMA every memory
        phase in the long run; exceeding either utilisation makes the
        set trivially unschedulable and skips the MILPs.
        """
        cpu_util = sum(t.exec_time / t.period for t in taskset)
        dma_util = sum((t.copy_in + t.copy_out) / t.period for t in taskset)
        if cpu_util > 1.0 + 1e-12 or dma_util > 1.0 + 1e-12:
            return False
        return self.first_unschedulable(taskset) is None
