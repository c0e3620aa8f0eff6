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
its rungs in code order. The ladder's one screen, the closed form, runs
once per task, in :meth:`ProposedAnalysis._screened`, for one task or a
whole task set; every later rung pays for its model only when the
ladder reaches it.

Every memoised value is tagged (``("milp", ...)`` exact optimum /
``("lb", theta)`` target-stop lower bound / ``("ub", bound)``
cutoff-proof upper bound), and the analysis cache ranks the tags so a
bound never shadows an exact optimum; see :mod:`repro.analysis.cache`.
An ``lb`` entry answers any later target query at or below its bound
without a solve; a ``ub`` entry answers only the probe and never stands
in for an optimum.
"""

from __future__ import annotations

import dataclasses
import functools
import math
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
    SolverTimeoutError,
    UnboundedModelError,
)
from repro.milp.highs import HighsBackend
from repro.milp.model import MilpBackend, MilpModel
from repro.milp.relaxation import LpRelaxationBackend
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


def _window(task: Task, response: Time) -> Time:
    """The window ``t = R - C - u`` of a tentative response, floored at
    ``l`` (the copy-in always precedes the execution)."""
    return max(response - task.exec_time - task.copy_out, task.copy_in)


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
    add ``copy_out`` for the response), and ``kind`` says which side
    of the optimum it lies on, in the memo's tags: ``"milp"``, the
    optimum as the memo keeps it; ``"lb"``, a lower bound, from a solve
    that stopped at its objective target; ``"ub"``, an upper bound,
    from a probe's cutoff proof or any degraded solve.
    """

    objective: float
    num_intervals: int
    stats: dict
    degradation: int
    cached: bool
    kind: str


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
    :meth:`ProposedAnalysis._screened` fills in ``closed_form``, the
    closed-form WCRT (``inf`` past ``D``), and the probe fills in
    ``deadline_answer``, its answer at ``t_D`` (memoised or solved).
    The higher-priority WCRTs of the carry refinement and the model at
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
        self.deadline_window = _window(task, task.deadline)
        self.closed_form: Time = math.inf
        self.deadline_answer: _DelayEval | None = None

    @functools.cached_property
    def hp_wcrt(self) -> dict[str, Time] | None:
        return self.analysis._hp_wcrt_map(self.taskset, self.task)

    @functools.cached_property
    def deadline_model(self) -> DelayMilp:
        """The delay MILP at ``t_D``, built once, by the probe on a memo
        miss."""
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

    def _staircase(
        self, query: _Query, window: Time
    ) -> tuple[int, tuple[int, ...], int]:
        """``(N_i(t), budgets, cancellation budget)`` of one window.

        The window enters the formulation only through these three
        integer staircases; together they carry *every* dependence on
        ``t``, so two windows with equal staircases build the identical
        model (the fact the cache key and the step target rely on).
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
        return n, budgets, cancellation_budget(taskset, task, window, mode)

    def _delay_key(self, query: _Query, window: Time) -> tuple[str, int]:
        """Cache digest and interval count of one windowed delay MILP."""
        n, budgets, cancellations = self._staircase(query, window)
        key = delay_milp_key(
            query.taskset, query.task, query.mode.value, n, budgets,
            cancellations, query.hp_wcrt, self._solver_signature(),
        )
        return key, n

    def _step_start(self, query: _Query) -> Time:
        """The lowest window whose staircase equals ``t_D``'s.

        Found by bisection between the ``l`` floor and ``t_D`` down to
        adjacent floats, keeping ``hi`` on ``t_D``'s staircase, so the
        answer always builds ``t_D``'s model.
        """
        lo, hi = query.task.copy_in, query.deadline_window
        step = self._staircase(query, hi)
        if self._staircase(query, lo) == step:
            return lo
        while True:
            mid = lo + (hi - lo) / 2
            if not lo < mid < hi:
                return hi
            if self._staircase(query, mid) == step:
                hi = mid
            else:
                lo = mid

    def _step_target(self, query: _Query) -> float:
        """The fixpoint's objective target once the probe has disproved
        ``t_D``: the least delay whose next window reaches ``s``, the
        start of ``t_D``'s step, capped at ``theta``.

        ``f`` is monotone and constant on a step, so a delay at or above
        it moves the iteration to a window where ``f >= f(t_D) > D - u``
        (docs/analysis.md, "Step targets"). The window is computed as
        :meth:`_iterate` computes it, so float rounding cannot leave the
        next window just below ``s``.
        """
        task, start = query.task, self._step_start(query)
        target = start + task.exec_time
        while _window(task, target + task.copy_out) < start:
            target = math.nextafter(target, math.inf)
        assert query.theta is not None  # exact-MILP verdicts only
        return min(query.theta, target)

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
    ) -> tuple[str, _DelayEval | None]:
        """``(key, answer)`` the memo holds for a window.

        The answer is an exact optimum (the float a fresh build and
        solve would produce: the key digests the MILP's full semantic
        content); for a ``target`` at or below a memoised lower bound,
        that bound; or a memoised cutoff proof, of kind ``"ub"``, which
        only the probe reads.
        """
        key, n = self._delay_key(query, window)
        entry = self.cache.get(key)
        if isinstance(entry, tuple) and entry:
            if entry[0] == "milp":
                _, objective, num_intervals, stats, degradation = entry
                answer = _DelayEval(
                    objective, int(num_intervals), dict(stats),
                    int(degradation), cached=True, kind="milp",
                )
                return key, answer
            if entry[0] == "lb" and target is not None and target <= entry[1]:
                return key, _DelayEval(entry[1], n, {}, 0, True, "lb")
            if entry[0] == "ub":
                return key, _DelayEval(entry[1], n, {}, 0, True, "ub")
        return key, None

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
        keeps its chance of a sharper value; their kind is ``"ub"``.
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
        if solution.degradation:
            kind = "ub"
        elif reached or below:
            kind = "lb" if reached else "ub"
            self.cache.put(key, (kind, solution.objective))
        else:
            kind = "milp"
            self.cache.put(key, (
                "milp", solution.objective, built.num_intervals,
                dict(built.stats), 0,
            ))
        return _DelayEval(
            solution.objective,
            built.num_intervals,
            dict(built.stats),
            solution.degradation,
            cached=False,
            kind=kind,
        )

    def _delay(
        self,
        query: _Query,
        window: Time,
        slot: _IncrementalSlot,
        target: float | None = None,
    ) -> _DelayEval:
        """Evaluate the delay map ``f`` at ``window``, memoised: a
        cutoff proof never stands in for the optimum."""
        key, answer = self._recall(query, window, target)
        if answer is not None and answer.kind != "ub":
            return answer
        built = self._obtain_model(slot, query, window)
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
        self,
        query: _Query,
        target: float | None = None,
        step_target: float | None = None,
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
        :meth:`_obtain_model`). ``target`` (verdict path only) is handed
        to every integer solve, and a lower
        ``step_target`` (see :meth:`_step_target`) replaces it in each
        iteration whose response it would move by more than
        ``convergence_eps``. A value at or above the solve's target —
        possibly only a lower bound — ends the iteration unconverged
        with an infinite WCRT: the fixpoint lies beyond the deadline,
        which is all the verdict reads, and the value never reaches the
        convergence test.
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
        response = task.total_cost
        for iteration in range(1, options.max_iterations + 1):
            window = _window(task, response)
            aim = target
            if step_target is not None and (
                step_target + task.copy_out > response + options.convergence_eps
            ):
                aim = step_target
            with obs.span(
                "fixpoint.iteration",
                task=task.name,
                mode=mode.value,
                iteration=iteration,
            ):
                evaluated = self._delay(query, window, slot, aim)
                details["cache_hits" if evaluated.cached else "solves"] += 1
                details["num_intervals"] = evaluated.num_intervals
                details.setdefault("milp_stats", evaluated.stats)
                if evaluated.degradation:
                    details["degradation"] = max(
                        details.get("degradation", 0), evaluated.degradation
                    )
            if aim is not None and evaluated.objective >= aim:
                return TaskResult(task, math.inf, iteration, False, details)
            new_response = evaluated.objective + task.copy_out
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

    def _probe_rung(self, query: _Query) -> bool | None:
        """One targeted integer evaluation at ``t_D``: ``f`` is monotone,
        so ``f(t_D) + u <= D`` makes ``D`` a pre-fixpoint and the least
        fixpoint is ``<= D``. The solve carries the cutoff just below
        ``D - u``, so it only has to show that no schedule exceeds it
        (docs/analysis.md, "Fast verdicts"). A memoised answer stands in
        for the solve, and the model at ``t_D`` is built only on a miss;
        a memoised cutoff proof is an earlier probe of the same model,
        re-solved only when it does not fit this task's deadline."""
        task = query.task
        key, answer = self._recall(query, query.deadline_window, query.theta)
        if answer is None or (
            answer.kind == "ub"
            and not _meets(task, answer.objective + task.copy_out)
        ):
            answer = self._solve(
                query.deadline_model, key, query.taskset, task,
                query.theta, query.cutoff,
            )
        query.deadline_answer = answer
        return True if _meets(task, answer.objective + task.copy_out) else None

    def _fixpoint_rung(self, query: _Query) -> bool:
        """The integer fixpoint decides. Its solves carry the target
        only with ``stop_at_deadline``, the only time it stops at the
        deadline. When the probe's answer is no upper bound it has
        disproved ``t_D``, and the solves stop at the start of
        ``t_D``'s step instead (:meth:`_step_target`)."""
        if not self.options.stop_at_deadline:
            return _meets(query.task, self._iterate(query).wcrt)
        step_target = None
        answer = query.deadline_answer
        if query.theta is not None and answer is not None and (
            answer.kind != "ub"
        ):
            step_target = self._step_target(query)
        return _meets(
            query.task, self._iterate(query, query.theta, step_target).wcrt
        )

    def _screened(self, taskset: TaskSet, tasks: Sequence[Task]) -> list[_Query]:
        """One query per task, with the closed-form screen run once.

        The closed form bounds every task, one
        :func:`closed_form_delay_bounds_batch` call per mode. Nothing
        else is computed ahead: the memo is read, and a model built, at
        ``t_D`` only by the probe of a task the ladder reaches, so a
        sweep that stops at its first unschedulable task pays nothing
        for the tasks after it. The rungs bump the counters as they
        decide, so such a sweep surfaces identical stats sequentially
        and in parallel.
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
