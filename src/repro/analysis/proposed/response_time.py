"""Iterative worst-case response-time computation (paper Sec. VI).

The delay MILP of Sec. V is parameterised by a tentative response time
``R`` (through the window ``t = R - C_i - u_i`` that feeds the arrival
curves and the interval count). Starting from the minimum possible
response ``l_i + C_i + u_i``, the MILP is re-solved with the window
induced by its own previous optimum until the value stabilises — the
classical response-time fixpoint, monotone because larger windows only
enlarge the feasible schedule set. :meth:`ProposedAnalysis._iterate`
is the one loop that iterates it.

For LS tasks the bound is the maximum of case (a) (not promoted —
iterated MILP) and case (b) (promoted in ``I_0`` — window-independent,
solved once and cross-checkable against its closed form).

A verdict needs only ``R <= D``, not ``R``, so
:meth:`ProposedAnalysis.verdict` first tries an ordered ladder of
cheaper sufficient conditions; docs/analysis.md, "Fast verdicts", lists
its rungs in code order. The two screens of the ladder, the closed form
and the LP relaxation at the deadline window, run once per task, in
:meth:`ProposedAnalysis._screened`, for one task or a whole task set.

Every memoised value is tagged (``("milp", ...)`` exact optimum /
``("lb", theta)`` target-stop lower bound / ``("lp", bound)``
screening bound / ``("ub", bound)`` cutoff-proof upper bound), and the
analysis cache ranks the tags so a bound never shadows an exact
optimum; see :mod:`repro.analysis.cache`. An ``lb`` entry answers any
later target query at or below its bound without a solve; ``lp`` and
``ub`` entries are upper bounds and never stand in for an optimum.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Callable, NamedTuple, Sequence

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

#: Relative margin of the probe's objective cutoff below ``D - u``
#: (scaled by ``max(1, |D - u|)``). It absorbs HiGHS's LP tolerances in
#: the pruning test, so a delay above ``D - u`` is never pruned.
CUTOFF_MARGIN = 1e-6


def _default_backend_factory(options: AnalysisOptions) -> BackendFactory:
    return lambda: HighsBackend(time_limit=options.time_limit)


def _meets(task: Task, response: Time) -> bool:
    """``response <= D``, up to the verdicts' 1e-9 deadline tolerance."""
    return response <= task.deadline + 1e-9


def _usable(solution: MilpSolution) -> bool:
    """Whether a backend's answer may stand: no error status, and a
    finite objective whenever it reports one."""
    if solution.status is SolveStatus.ERROR:
        return False
    return not solution.status.has_solution or math.isfinite(
        solution.objective
    )


class _DelayEval(NamedTuple):
    """One evaluation of the delay map ``f`` at a window.

    ``objective`` is the MILP optimum (the delaying-interval length;
    add ``copy_out`` for the response) — or, after a solve that stopped
    at its objective target, a lower bound beyond that target; or, after
    a probe's cutoff proof, an upper bound at or below ``D - u``.
    """

    objective: float
    num_intervals: int
    stats: dict
    degradation: int
    cached: bool


class _IncrementalSlot:
    """Holds one fixpoint's live model across iterations.

    When the next window preserves the interval count, the model is
    retargeted in place instead of rebuilt (and its cached compilation
    is patched, not re-lowered).
    """

    __slots__ = ("built",)

    def __init__(self) -> None:
        self.built: DelayMilp | None = None


class _Query:
    """One task's analysis question and the values its rungs share.

    ``mode`` is the windowed mode the task iterates, ``theta`` the
    objective target of its verdict's integer solves and ``cutoff`` the
    objective cutoff of its probe (both exact-MILP method only).
    :meth:`ProposedAnalysis._screened` fills in the screens' outcomes
    once: ``closed_form``, the closed-form WCRT (``inf`` past ``D``);
    and, for a task that bound does not prove,
    ``deadline_key`` and ``deadline_answer``, the memo's digest and
    answer at ``t_D`` (see :meth:`ProposedAnalysis._recall`), and
    ``lp_proved``, whether the LP relaxation there fits ``D``. The
    higher-priority WCRTs of the carry refinement and the model at
    ``t_D`` are computed on first use, so a rung that decides early
    never pays for them.
    """

    def __init__(
        self, analysis: "ProposedAnalysis", taskset: TaskSet, task: Task
    ) -> None:
        self.analysis = analysis
        self.taskset = taskset
        self.task = task
        self.ls = analysis._supports_ls and task.latency_sensitive
        self.mode = AnalysisMode.LS_CASE_A if self.ls else analysis._nls_mode
        self.theta = self.cutoff = None
        if analysis.method == "milp":
            slack = task.deadline - task.copy_out
            self.theta = slack + TARGET_SLACK
            self.cutoff = slack - CUTOFF_MARGIN * max(1.0, abs(slack))
        #: ``t_D = D - C - u``, the window of a response equal to ``D``.
        self.deadline_window = max(
            task.deadline - task.exec_time - task.copy_out, task.copy_in
        )
        self.closed_form: Time = math.inf
        self.deadline_key = ""
        self.deadline_answer: _DelayEval | None = None
        self.lp_proved = False

    @functools.cached_property
    def hp_wcrt(self) -> dict[str, Time] | None:
        return self.analysis._hp_wcrt_map(self.taskset, self.task)

    @functools.cached_property
    def deadline_model(self) -> DelayMilp:
        """The delay MILP at ``t_D``, built once for the LP screen and
        the probe."""
        return build_delay_milp(
            self.taskset, self.task, self.deadline_window, self.mode,
            hp_wcrt=self.hp_wcrt,
        )


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
        """WCRT bound for one task: the integer fixpoint of its mode,
        and for an LS task the larger of it and case (b)."""
        taskset.require_member(task)
        query = _Query(self, taskset, task)
        case_a = self._iterate(query)
        if not query.ls:
            return case_a
        if self.method == "milp":
            case_b = self._case_b_wcrt(taskset, task)
        else:
            case_b = ls_case_b_bound(taskset, task)
        return dataclasses.replace(
            case_a,
            wcrt=max(case_a.wcrt, case_b),
            details={
                **case_a.details,
                "case_a_wcrt": case_a.wcrt,
                "case_b_wcrt": case_b,
            },
        )

    def _closed_form(self, taskset: TaskSet, task: Task, mode: AnalysisMode) -> Time:
        """One mode's conservative closed-form WCRT: ``inf`` past ``D``
        with ``stop_at_deadline``, the fixpoint itself without."""
        return closed_form_delay_bound(
            taskset, task, mode.blocking_intervals, mode.uses_ls_machinery,
            None if self.options.stop_at_deadline else math.inf,
        )

    def _solve_model(
        self,
        model: MilpModel,
        taskset: TaskSet,
        task: Task,
        mode: AnalysisMode,
        target: float | None = None,
        cutoff: float | None = None,
    ) -> MilpSolution:
        """Solve one delay MILP, degrading safely when the solver fails.

        The chain is the exact solve (HiGHS walks its own option ladder
        first), then the LP relaxation of the same compiled model, then
        the closed form. For a delay *maximisation* each rung
        upper-bounds the previous one's optimum, so a degraded value is
        more pessimistic, never optimistic; the rung that answered is
        recorded in :attr:`MilpSolution.degradation`. A solve fails
        when its backend raises :class:`BackendUnavailableError` or
        :class:`SolverTimeoutError`, or returns an error status or a
        non-finite objective.
        """
        try:
            solution = model.solve(
                self.backend_factory(), target=target, cutoff=cutoff
            )
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
        # The closed-form WCRT upper-bounds the MILP fixpoint, hence
        # also the per-window optimum (plus copy-out), for every window
        # the iteration can visit.
        if mode is AnalysisMode.LS_CASE_B:
            bound = ls_case_b_bound(taskset, task)
        else:
            bound = self._closed_form(taskset, task, mode)
        return MilpSolution(
            status=SolveStatus.TIME_LIMIT,
            objective=bound - task.copy_out,
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

    def _delay_key(self, query: _Query, window: Time) -> tuple[str, int]:
        """Cache digest and interval count of one windowed delay MILP.

        The window enters the formulation only through ``N_i(t)``, the
        per-task budgets and the cancellation budget; together they
        carry *every* dependence on ``t``, so two windows with equal
        staircases build the identical model (the fact the key relies
        on).
        """
        taskset, task, mode = query.taskset, query.task, query.mode
        hp_wcrt = query.hp_wcrt
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
        key = delay_milp_key(
            taskset, task, mode.value, n, budgets,
            cancellation_budget(taskset, task, window, mode),
            hp_wcrt, self._solver_signature(),
        )
        return key, n

    def _obtain_model(
        self, slot: _IncrementalSlot, query: _Query, window: Time
    ) -> DelayMilp:
        """Build the delay MILP — incrementally when the slot allows it.

        A live model whose interval count matches is retargeted in
        place (``milp.incremental.update``); an interval-count change
        forces a rebuild (``milp.incremental.rebuild``). Either way the
        slot ends up holding the model used, ready for the next
        iteration.
        """
        taskset, task, mode = query.taskset, query.task, query.mode
        built = None
        if slot.built is not None:
            built = update_delay_milp(
                slot.built, taskset, task, window, query.hp_wcrt
            )
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
            built = build_delay_milp(
                taskset, task, window, mode, hp_wcrt=query.hp_wcrt
            )
        slot.built = built
        return built

    def _recall(
        self, query: _Query, window: Time, target: float | None
    ) -> tuple[str, int, _DelayEval | None, float | None]:
        """``(key, N_i(t), answer, lp_bound)`` the memo holds for a window.

        The answer is an exact optimum (the float a fresh build and
        solve would produce: the key digests the MILP's full semantic
        content) or, for a ``target`` at or below a memoised lower
        bound, that bound. ``lp_bound`` is a memoised upper bound: an
        LP screen or a cutoff proof.
        """
        key, n = self._delay_key(query, window)
        entry = self.cache.get(key)
        if isinstance(entry, tuple) and entry:
            if entry[0] == "milp":
                _, objective, num_intervals, stats, degradation = entry
                answer = _DelayEval(
                    objective, int(num_intervals), dict(stats),
                    int(degradation), cached=True,
                )
                return key, n, answer, None
            if entry[0] == "lb" and target is not None and target <= entry[1]:
                return key, n, _DelayEval(entry[1], n, {}, 0, True), None
            if entry[0] in ("lp", "ub"):
                return key, n, None, entry[1]
        return key, n, None, None

    def _relax(self, built: DelayMilp, key: str, task: Task) -> float | None:
        """The LP bound of one built model, memoised as ``("lp", bound)``.

        ``None`` when the relaxation fails or ends other than optimal:
        the squeeze of :meth:`_delay` then solves the integer model.
        """
        try:
            relaxed = LpRelaxationBackend().solve_compiled(built.model.compile())
        except SolverError:
            return None
        self.cache.bump("lp_solves")
        obs.emit(
            "solve.screen",
            task=task.name,
            dur=relaxed.runtime_seconds,
            mode=built.mode.value,
            status=relaxed.status.value,
            rows=built.stats.get("constraints"),
            vars=built.stats.get("variables"),
        )
        if relaxed.status is not SolveStatus.OPTIMAL:
            return None
        self.cache.put(key, ("lp", relaxed.objective))
        return relaxed.objective

    def _solve(
        self,
        built: DelayMilp,
        key: str,
        taskset: TaskSet,
        task: Task,
        target: float | None = None,
        cutoff: float | None = None,
    ) -> _DelayEval:
        """Solve one built delay MILP and memoise the answer.

        An exact optimum is memoised as ``("milp", ...)``. With
        ``target`` set (verdict path, exact-MILP method only) the
        integer solve may stop at the first incumbent beyond it; the
        objective is then a lower bound, memoised as ``("lb", bound)``.
        With ``cutoff`` set (the probe only) it may instead prove that
        nothing lies above the cutoff; the objective is then an upper
        bound, memoised as ``("ub", bound)`` and never read as an
        optimum. Degraded solutions — where :meth:`_solve_model`
        substituted a weaker bound — are never memoised, so a retry
        keeps its chance of a sharper value.
        """
        mode = built.mode
        solution = self._solve_model(
            built.model, taskset, task, mode, target=target, cutoff=cutoff
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
                f"window={built.window}); this indicates a formulation bug"
            )
        if solution.status is SolveStatus.UNBOUNDED:
            raise UnboundedModelError(
                f"delay MILP unbounded for {task.name} (mode={mode.value})"
            )
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
        below = solution.status is SolveStatus.BELOW_CUTOFF
        if below:
            self.cache.bump("milp_cutoff_proofs")
        if not solution.degradation:
            if reached or below:
                entry: tuple = ("lb" if reached else "ub", solution.objective)
            else:
                entry = (
                    "milp", solution.objective, built.num_intervals,
                    dict(built.stats), 0,
                )
            self.cache.put(key, entry)
        return _DelayEval(
            solution.objective,
            built.num_intervals,
            dict(built.stats),
            solution.degradation,
            cached=False,
        )

    def _delay(
        self,
        query: _Query,
        window: Time,
        slot: _IncrementalSlot,
        incumbent: float | None = None,
        target: float | None = None,
    ) -> _DelayEval:
        """Evaluate the delay map ``f`` at ``window``, memoised.

        With ``incumbent`` set (the previous iteration's objective), a
        memoised upper bound (LP screen or cutoff proof) or an LP bound
        at or below it proves the new window's optimum *equals* the
        incumbent: the monotone fixpoint keeps it from dropping below,
        the bound caps it from above. The integer solve is skipped and
        the objective is bit-identical to the solved path's.
        """
        key, n, answer, lp_bound = self._recall(query, window, target)
        if answer is not None:
            return answer
        if incumbent is not None and lp_bound is not None and (
            lp_bound <= incumbent
        ):
            self.cache.bump("milp_warm_starts")
            return _DelayEval(incumbent, n, {}, 0, cached=True)
        built = self._obtain_model(slot, query, window)
        if incumbent is not None and lp_bound is None and self.method == "milp":
            lp_bound = self._relax(built, key, query.task)
            if lp_bound is not None and lp_bound <= incumbent:
                self.cache.bump("milp_warm_starts")
                return _DelayEval(
                    incumbent, built.num_intervals, dict(built.stats), 0,
                    cached=False,
                )
        return self._solve(built, key, query.taskset, query.task, target)

    def _case_b_wcrt(self, taskset: TaskSet, task: Task) -> Time:
        """LS case (b)'s MILP bound, solved once: it has no window."""
        key = case_b_key(taskset, task, self._solver_signature())
        entry = self.cache.get(key)
        if isinstance(entry, tuple):
            return entry[1] + task.copy_out
        built = build_delay_milp(taskset, task, 0.0, AnalysisMode.LS_CASE_B)
        return self._solve(built, key, taskset, task).objective + task.copy_out

    # ------------------------------------------------------------------
    def _iterate(
        self, query: _Query, target: float | None = None
    ) -> TaskResult:
        """The integer response-time fixpoint of one query.

        From ``R = l + C + u`` each iteration evaluates the delay map at
        ``t = R - C - u`` and moves to ``f(t) + u``. It ends converged
        once a step raises ``R`` by at most ``convergence_eps``;
        unconverged at a non-finite response, or past the deadline with
        ``stop_at_deadline``; and at ``max_iterations`` without any of
        these with an infinite WCRT, since the last tentative response
        lies below the fixpoint.

        One compiled model lives across iterations (see
        :meth:`_obtain_model`) and each new window is first squeezed
        with its LP bound (see :meth:`_delay`). ``target`` (verdict
        path only) is handed to every integer solve; a stop at it
        leaves a response beyond the deadline, which is all the verdict
        reads.
        """
        task, mode, options = query.task, query.mode, self.options
        if self.method == "closed_form":
            wcrt = self._closed_form(query.taskset, task, mode)
            return TaskResult(
                task, wcrt, 1, not math.isinf(wcrt), {"method": "closed_form"}
            )
        details: dict = {
            "method": "milp", "mode": mode.value, "solves": 0, "cache_hits": 0,
        }
        slot = _IncrementalSlot()
        incumbent: float | None = None
        response = task.total_cost
        for iteration in range(1, options.max_iterations + 1):
            window = max(response - task.exec_time - task.copy_out, task.copy_in)
            with obs.span(
                "fixpoint.iteration",
                task=task.name,
                mode=mode.value,
                iteration=iteration,
            ):
                evaluated = self._delay(query, window, slot, incumbent, target)
                details["cache_hits" if evaluated.cached else "solves"] += 1
                details["num_intervals"] = evaluated.num_intervals
                details.setdefault("milp_stats", evaluated.stats)
                if evaluated.degradation:
                    details["degradation"] = max(
                        details.get("degradation", 0), evaluated.degradation
                    )
                incumbent = evaluated.objective
            new_response = incumbent + task.copy_out
            if new_response <= response + options.convergence_eps:
                return TaskResult(
                    task, max(response, new_response), iteration, True, details
                )
            response = new_response
            if not math.isfinite(response) or (
                options.stop_at_deadline and response > task.deadline
            ):
                return TaskResult(task, response, iteration, False, details)
        return TaskResult(task, math.inf, options.max_iterations, False, details)

    # ------------------------------------------------------------------
    # the verdict ladder
    # ------------------------------------------------------------------
    def verdict(self, taskset: TaskSet, task: Task) -> bool:
        """Schedulability verdict for one task (no WCRT value).

        Gives exactly the same answer as
        ``self.response_time(taskset, task).schedulable`` but typically
        needs zero or one MILP solve instead of a full fixpoint. The
        task is screened as :meth:`first_unschedulable` screens a whole
        set, then the rungs run in order (docs/analysis.md, "Fast
        verdicts").
        """
        taskset.require_member(task)
        (query,) = self._screened(taskset, [task])
        return self._decide(query)

    def _decide(self, query: _Query) -> bool:
        """Walk the verdict ladder of one screened query. Each rung
        answers proved (``True``), disproved (``False``) or inconclusive
        (``None``), and the first answer stands. A rung only ever proves
        what the integer fixpoint would prove, or disproves what it
        would disprove."""
        for rung in (
            self._case_b_rung,
            self._closed_form_rung,
            self._lp_screen_rung,
            self._probe_rung,
        ):
            answer = rung(query)
            if answer is not None:
                return answer
        return self._fixpoint_rung(query)

    def _case_b_rung(self, query: _Query) -> bool | None:
        """LS case (b), which has no window: its exact closed form within
        the deadline proves the case with no solve. Otherwise a case-(b)
        bound beyond the deadline disproves the task — the MILP's for
        the exact-MILP method, the closed form's for the others."""
        task = query.task
        if not query.ls:
            return None
        if _meets(task, ls_case_b_bound(query.taskset, task)):
            if self.method == "milp":
                self.cache.bump("screened_out")
            return None
        if self.method != "milp" or not _meets(
            task, self._case_b_wcrt(query.taskset, task)
        ):
            return False
        return None

    def _closed_form_rung(self, query: _Query) -> bool | None:
        """The screen's closed-form WCRT within the deadline proves; it
        is the whole decision of ``method="closed_form"``."""
        task = query.task
        if task.trivially_unschedulable:
            return False
        if _meets(task, query.closed_form):
            self.cache.bump("closed_form_screens")
            return True
        return False if self.method == "closed_form" else None

    def _lp_screen_rung(self, query: _Query) -> bool | None:
        """The screen's LP relaxation at ``t_D`` within the deadline
        proves (exact-MILP method only)."""
        if not query.lp_proved:
            return None
        self.cache.bump("lp_screens")
        return True

    def _probe_rung(self, query: _Query) -> bool | None:
        """One targeted integer evaluation at ``t_D``: ``f`` is monotone,
        so ``f(t_D) + u <= D`` makes ``D`` a pre-fixpoint and the least
        fixpoint is ``<= D``. The solve carries the cutoff just below
        ``D - u``, so it only has to show that no schedule exceeds it
        (docs/analysis.md, "Fast verdicts"). A memoised answer the screen
        read stands in for the solve."""
        task = query.task
        answer = query.deadline_answer
        if answer is None:
            answer = self._solve(
                query.deadline_model, query.deadline_key, query.taskset, task,
                query.theta, query.cutoff,
            )
        return True if _meets(task, answer.objective + task.copy_out) else None

    def _fixpoint_rung(self, query: _Query) -> bool:
        """The integer fixpoint decides. Its solves carry the target
        only with ``stop_at_deadline``, the only time it stops at the
        deadline."""
        target = query.theta if self.options.stop_at_deadline else None
        return _meets(query.task, self._iterate(query, target).wcrt)

    def _screened(self, taskset: TaskSet, tasks: Sequence[Task]) -> list[_Query]:
        """One query per task, with the closed-form and LP screens run once.

        The closed form bounds every task, one
        :func:`closed_form_delay_bounds_batch` call per mode. For each
        task it leaves undecided the memo is read once at ``t_D``: an
        exact or ``lb`` answer is kept for the probe, and an upper bound
        (an LP screen's, or a probe's cutoff proof) screens as it is.
        The exact-MILP method relaxes the remaining deadline-window
        models as one block-diagonal LP
        (:func:`screen_batch`) and memoises the bounds; a failed screen
        leaves the decision to the probe. The rungs bump the counters
        as they read the outcomes, so a sweep that stops at its first
        unschedulable task surfaces identical stats sequentially and in
        parallel.
        """
        queries = [_Query(self, taskset, task) for task in tasks]
        modes: dict[AnalysisMode, list[_Query]] = {}
        for query in queries:
            modes.setdefault(query.mode, []).append(query)
        for mode, group in modes.items():
            bounds = closed_form_delay_bounds_batch(
                taskset,
                [query.task for query in group],
                mode.blocking_intervals,
                mode.uses_ls_machinery,
            )
            for query, bound in zip(group, bounds):
                query.closed_form = bound
        if self.method == "closed_form":
            return queries
        batch: list[_Query] = []
        for query in queries:  # priority order
            task = query.task
            if _meets(task, query.closed_form) or task.trivially_unschedulable:
                continue
            key, _, answer, bound = self._recall(
                query, query.deadline_window, query.theta
            )
            query.deadline_key, query.deadline_answer = key, answer
            if answer is not None or self.method != "milp":
                continue
            if bound is None:
                batch.append(query)
            else:
                query.lp_proved = _meets(task, bound + task.copy_out)
        if not batch:
            return queries
        models = [query.deadline_model.model for query in batch]
        start = time.perf_counter()
        try:
            lp_bounds = screen_batch([model.compile() for model in models])
        except SolverError:
            return queries
        self.cache.bump("lp_solves", len(batch))
        obs.emit(
            "solve.screen_batch",
            dur=time.perf_counter() - start,
            size=len(batch),
        )
        for query, lp_bound in zip(batch, lp_bounds):
            if lp_bound is None:
                continue
            self.cache.put(query.deadline_key, ("lp", lp_bound))
            query.lp_proved = _meets(query.task, lp_bound + query.task.copy_out)
        return queries

    def first_unschedulable(self, taskset: TaskSet) -> Task | None:
        """Highest-priority task whose verdict is negative, or None."""
        for query in self._screened(taskset, list(taskset)):  # priority order
            if not self._decide(query):
                return query.task
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
