"""Deadline-targeted integer solves and the ``lb``/``ub`` cache tiers.

A verdict only asks whether a delay exceeds ``D - u``, so its integer
solves carry that value as an objective target and HiGHS may stop at
the first incumbent beyond it; the probe at ``t_D`` also carries a
cutoff just below it, so HiGHS may prune every schedule that cannot
exceed it. Once the probe has disproved ``t_D``, the fixpoint's solves
stop at the start of ``t_D``'s staircase step instead. These tests pin
the layers: the backend's ``TARGET_REACHED`` and ``BELOW_CUTOFF``
statuses and its integer snapping, the rank-ordered ``lb`` and ``ub``
entries of the analysis cache, the step targets, and verdicts/WCRTs
that the early stops never move.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import repro.analysis.proposed.response_time as response_time_module
import repro.milp.highs as highs_module
from repro.analysis.cache import AnalysisCache, _entry_rank
from repro.analysis.interface import AnalysisOptions
from repro.analysis.proposed import ProposedAnalysis
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.analysis.proposed.response_time import TARGET_SLACK, _Query, _window
from repro.analysis.wasly import WaslyAnalysis
from repro.experiments import run_experiment
from repro.experiments.config import figure2_config
from repro.experiments.report import aggregate_analysis_stats
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.errors import BackendUnavailableError, SolverTimeoutError
from repro.milp import (
    BranchBoundBackend,
    DegradationLevel,
    HighsBackend,
    LpRelaxationBackend,
    MilpModel,
    MilpSolution,
    SolveStatus,
)
from repro.model.taskset import TaskSet

# A 40-item, 3-constraint 0/1 knapsack: big enough that HiGHS branches
# (so a target can stop it), small enough to solve in well under 1 s.
_OFFSET = 100.0


def _knapsack() -> MilpModel:
    rng = np.random.default_rng(0)
    weights = rng.integers(10, 100, size=(3, 40)).astype(float)
    values = rng.integers(10, 100, size=40).astype(float)
    model = MilpModel("knapsack")
    xs = [model.binary(f"x{i}") for i in range(40)]
    for row in weights:
        model.add(sum(w * x for w, x in zip(row, xs)) <= row.sum() / 3)
    # The objective constant checks the target's offset arithmetic.
    model.maximize(sum(v * x for v, x in zip(values, xs)) + _OFFSET)
    return model


@pytest.fixture(scope="module")
def knapsack_optimum():
    solution = HighsBackend().solve(_knapsack())
    assert solution.status is SolveStatus.OPTIMAL
    return solution.objective


class TestHighsTarget:
    def test_target_below_optimum_stops_early(self, knapsack_optimum):
        target = knapsack_optimum - 50.0
        solution = HighsBackend().solve(_knapsack(), target=target)
        assert solution.status is SolveStatus.TARGET_REACHED
        assert solution.objective == target
        assert not solution.status.has_solution

    def test_target_above_optimum_returns_the_exact_optimum(
        self, knapsack_optimum
    ):
        solution = HighsBackend().solve(
            _knapsack(), target=knapsack_optimum + 1.0
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == knapsack_optimum

    def test_model_solve_forwards_the_target(self, knapsack_optimum):
        solution = _knapsack().solve(target=knapsack_optimum - 50.0)
        assert solution.status is SolveStatus.TARGET_REACHED

    def test_target_option_raises_no_scipy_warning(self, knapsack_optimum):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            HighsBackend().solve(_knapsack(), target=knapsack_optimum - 50.0)

    def test_backend_without_target_support_returns_the_optimum(
        self, knapsack_optimum
    ):
        model = MilpModel("small")
        x = model.var("x", 0.0, 3.0, integer=True)
        y = model.var("y", 0.0, 2.0)
        model.add(x + y <= 4.5)
        model.maximize(2 * x + y)
        solution = BranchBoundBackend().solve(model, target=0.5)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(7.5)


class TestHighsCutoff:
    def test_cutoff_above_optimum_proves_nothing_exceeds_it(
        self, knapsack_optimum
    ):
        cutoff = knapsack_optimum + 5.0
        solution = HighsBackend().solve(
            _knapsack(), target=cutoff + 1.0, cutoff=cutoff
        )
        assert solution.status is SolveStatus.BELOW_CUTOFF
        assert solution.objective == cutoff
        assert not solution.status.has_solution

    def test_cutoff_below_optimum_reports_the_optimum(self, knapsack_optimum):
        solution = HighsBackend().solve(
            _knapsack(), cutoff=knapsack_optimum - 5.0
        )
        assert solution.status is SolveStatus.BELOW_CUTOFF
        assert solution.objective == knapsack_optimum

    def test_target_stop_wins_over_the_cutoff(self, knapsack_optimum):
        target = knapsack_optimum - 50.0
        solution = HighsBackend().solve(
            _knapsack(), target=target, cutoff=target - 1.0
        )
        assert solution.status is SolveStatus.TARGET_REACHED
        assert solution.objective == target

    def test_model_solve_forwards_the_cutoff(self, knapsack_optimum):
        solution = _knapsack().solve(cutoff=knapsack_optimum + 5.0)
        assert solution.status is SolveStatus.BELOW_CUTOFF

    @pytest.mark.parametrize(
        "backend", [BranchBoundBackend, LpRelaxationBackend]
    )
    def test_backends_without_cutoff_support_ignore_it(self, backend):
        plain = backend().solve(_small_model())
        limited = _small_model().solve(backend(), target=0.5, cutoff=0.5)
        assert plain.status is limited.status is SolveStatus.OPTIMAL
        assert limited.objective == plain.objective == pytest.approx(2.0)


class _FakeResult:
    def __init__(self, status, message="", x=None):
        self.status = status
        self.message = message
        self.x = x
        self.mip_dual_bound = None


_STOP_MESSAGE = (
    "(HiGHS Status 12: model_status is Target for objective reached; "
    "primal_status is Feasible)"
)


def _small_model():
    m = MilpModel("probe")
    x = m.var("x", 0.0, 1.0, integer=True)
    y = m.var("y", 0.0, 2.0)
    m.add(x + y <= 2.0)
    m.maximize(x + y)
    return m


def _patch_milp(monkeypatch, results):
    calls = []

    def fake_milp(c, constraints=None, bounds=None, integrality=None, options=None):
        calls.append(options or {})
        return results[min(len(calls), len(results)) - 1]

    monkeypatch.setattr(highs_module, "milp", fake_milp)
    return calls


class TestTargetStatusPlumbing:
    def test_status_12_is_an_answer_not_a_retry(self, monkeypatch):
        calls = _patch_milp(monkeypatch, [_FakeResult(4, _STOP_MESSAGE)])
        solution = HighsBackend().solve(_small_model(), target=1.5)
        assert solution.status is SolveStatus.TARGET_REACHED
        assert solution.objective == 1.5
        assert len(calls) == 1
        assert calls[0]["objective_target"] == -1.5

    def test_status_12_without_a_target_walks_the_ladder(self, monkeypatch):
        calls = _patch_milp(
            monkeypatch,
            [
                _FakeResult(4, _STOP_MESSAGE),
                _FakeResult(0, x=np.array([1.0, 1.0])),
            ],
        )
        solution = HighsBackend().solve(_small_model())
        assert solution.status is SolveStatus.OPTIMAL
        assert len(calls) == 2

    def test_degradation_chain_keeps_a_target_stop(self, monkeypatch):
        # A target stop is an answer: the analysis takes it as it is,
        # without degrading to a relaxation.
        from repro.analysis.proposed.formulation import AnalysisMode

        calls = _patch_milp(monkeypatch, [_FakeResult(4, _STOP_MESSAGE)])
        taskset = TaskSet.from_parameters([("a", 1.0, 0.2, 0.2, 10.0, 9.0)])
        solution = ProposedAnalysis()._solve_model(
            _small_model(), taskset, taskset.by_name("a"), AnalysisMode.NLS,
            target=1.5,
        )
        assert solution.status is SolveStatus.TARGET_REACHED
        assert solution.degradation == 0
        assert len(calls) == 1

    def test_perturbed_retry_keeps_the_target(self, monkeypatch):
        # The default options and the first two ladder rungs fail; the
        # last rung (presolve off, tighter tolerance) must still carry
        # the objective target.
        calls = _patch_milp(
            monkeypatch,
            [_FakeResult(4)] * 3 + [_FakeResult(4, _STOP_MESSAGE)],
        )
        solution = HighsBackend().solve(_small_model(), target=1.5)
        assert solution.status is SolveStatus.TARGET_REACHED
        assert len(calls) == 4
        assert calls[3]["presolve"] is False
        assert all(call["objective_target"] == -1.5 for call in calls)


class TestCutoffStatusPlumbing:
    def test_cutoff_reaches_highs_as_an_objective_bound_at_zero_gap(
        self, monkeypatch
    ):
        calls = _patch_milp(monkeypatch, [_FakeResult(2)])
        solution = HighsBackend().solve(_small_model(), target=1.6, cutoff=1.5)
        assert solution.status is SolveStatus.BELOW_CUTOFF
        assert solution.objective == 1.5
        assert len(calls) == 1
        assert calls[0]["objective_bound"] == -1.5
        assert calls[0]["objective_target"] == -1.6
        assert calls[0]["mip_rel_gap"] == calls[0]["mip_abs_gap"] == 0.0

    def test_targeted_solves_run_at_zero_gap_and_exact_ones_do_not(
        self, monkeypatch
    ):
        calls = _patch_milp(
            monkeypatch, [_FakeResult(0, x=np.array([1.0, 1.0]))]
        )
        HighsBackend().solve(_small_model(), target=5.0)
        HighsBackend().solve(_small_model())
        assert calls[0]["mip_rel_gap"] == calls[0]["mip_abs_gap"] == 0.0
        assert "objective_bound" not in calls[0]
        assert calls[1] == {}

    def test_an_optimum_below_the_cutoff_reports_the_cutoff(self, monkeypatch):
        # HiGHS's "optimal" incumbent under a cutoff may lie below the
        # true optimum; only the cutoff bounds it.
        _patch_milp(monkeypatch, [_FakeResult(0, x=np.array([0.0, 0.5]))])
        solution = HighsBackend().solve(_small_model(), target=1.6, cutoff=1.5)
        assert solution.status is SolveStatus.BELOW_CUTOFF
        assert solution.objective == 1.5

    def test_an_incumbent_beyond_the_target_is_a_target_stop(
        self, monkeypatch
    ):
        _patch_milp(monkeypatch, [_FakeResult(0, x=np.array([1.0, 1.0]))])
        solution = HighsBackend().solve(_small_model(), target=1.6, cutoff=1.5)
        assert solution.status is SolveStatus.TARGET_REACHED
        assert solution.objective == 1.6

    def test_an_untargeted_optimum_reports_its_dual_bound(self, monkeypatch):
        # An untargeted solve stops within HiGHS's default gap, so its
        # incumbent (1.5 here) may lie below the optimum; the dual
        # bound (1.75) may not. A targeted solve runs at zero gap and
        # keeps its incumbent.
        within_gap = _FakeResult(0, x=np.array([1.0, 0.5]))
        within_gap.mip_dual_bound = -1.75
        _patch_milp(monkeypatch, [within_gap])
        assert HighsBackend().solve(_small_model()).objective == 1.75
        assert HighsBackend().solve(_small_model(), target=5.0).objective == 1.5
        within_gap.mip_dual_bound = -1.25
        assert HighsBackend().solve(_small_model()).objective == 1.5

    def test_a_time_limit_under_a_cutoff_degrades(self, monkeypatch):
        _patch_milp(monkeypatch, [_FakeResult(1, x=np.array([0.0, 0.5]))])
        with pytest.raises(SolverTimeoutError):
            HighsBackend().solve(_small_model(), target=1.6, cutoff=1.5)
        taskset = TaskSet.from_parameters([("a", 1.0, 0.2, 0.2, 10.0, 9.0)])
        solution = ProposedAnalysis()._solve_model(
            _small_model(), taskset, taskset.by_name("a"), AnalysisMode.NLS,
            target=1.6, cutoff=1.5,
        )
        assert solution.degradation is DegradationLevel.LP_RELAXATION
        assert solution.objective == pytest.approx(2.0)


def _snap_model(rhs):
    m = MilpModel("snap")
    x = m.var("x", 0.0, 1.0, integer=True)
    m.add(1000.0 * x <= rhs)
    m.maximize(x)
    return m


class TestSnapping:
    def test_snapping_within_tolerance_rounds(self, monkeypatch):
        _patch_milp(monkeypatch, [_FakeResult(0, x=np.array([0.9999999]))])
        solution = HighsBackend().solve(_snap_model(1000.0), target=5.0)
        assert solution.objective == 1.0
        assert solution.value_by_name("x") == 1.0

    def test_snapping_that_breaks_a_row_keeps_the_solver_values(
        self, monkeypatch
    ):
        # Rounding x = 0.9999996 up puts 1000 x at 1000, 4e-4 over the
        # row, far beyond HiGHS's 1e-6 feasibility tolerance; the
        # objective must not be read off that point.
        _patch_milp(monkeypatch, [_FakeResult(0, x=np.array([0.9999996]))])
        solution = HighsBackend().solve(_snap_model(999.9996), target=5.0)
        assert solution.objective == 0.9999996
        assert solution.value_by_name("x") == 0.9999996


class TestLowerBoundEntries:
    def test_ranks_order_lp_below_lb_below_milp(self):
        lp, lb = _entry_rank(("lp", 9.0)), _entry_rank(("lb", 3.0))
        assert lp < lb < _entry_rank(("milp", 4.0, 3, {}, 0))
        assert _entry_rank(4.0) == _entry_rank(("milp", 4.0, 3, {}, 0))

    @pytest.mark.parametrize(
        "writes",
        [
            [("lb", 3.0), ("lb", 5.0)],
            [("lb", 5.0), ("lb", 3.0)],
            [("lp", 9.0), ("lb", 3.0), ("lb", 5.0)],
            [("lb", 5.0), ("lp", 9.0), ("lb", 3.0)],
        ],
    )
    def test_lb_upserts_are_order_independent(self, writes):
        cache = AnalysisCache()
        for value in writes:
            cache.put("d", value)
        assert cache.get("d") == ("lb", 5.0)

    def test_cutoff_proofs_rank_with_the_lp_screens(self):
        assert _entry_rank(("ub", 2.0)) == _entry_rank(("lp", 9.0))
        cache = AnalysisCache()
        for value in (("lp", 9.0), ("ub", 2.0), ("milp", 1.5, 3, {}, 0)):
            cache.put("d", value)
        assert cache.get("d") == ("milp", 1.5, 3, {}, 0)

    def test_exact_entry_supersedes_lb_never_vice_versa(self):
        exact = ("milp", 4.0, 3, {}, 0)
        cache = AnalysisCache()
        for value in (("lb", 3.0), exact, ("lb", 3.5)):
            cache.put("d", value)
        assert cache.get("d") == exact


#: ``(n, U, seed, LS)`` cells; with ``LS`` set, the lowest-priority
#: task of each set is marked latency-sensitive, so LS case (b) runs.
_MATRIX = ((4, 0.4, 11, False), (4, 0.5, 12, False), (4, 0.4, 11, True))

#: The verdict rungs' counters; each must fire somewhere on the matrix.
_RUNG_COUNTERS = (
    "closed_form_screens",
    "screened_out",
    "milp_solves",
    "milp_target_stops",
    "milp_cutoff_proofs",
)


def _matrix(cells=_MATRIX):
    for n, utilization, seed, ls in cells:
        config = GenerationConfig(n=n, utilization=utilization, gamma=0.3)
        for taskset in generate_tasksets(config, count=3, seed=seed):
            yield taskset.with_ls_marks([taskset[-1].name]) if ls else taskset


class TestVerdictsAndWcrts:
    @pytest.mark.parametrize("method", ["milp", "closed_form"])
    @pytest.mark.parametrize("analysis_cls", [ProposedAnalysis, WaslyAnalysis])
    def test_verdict_equals_full_analysis_on_generated_matrix(
        self, analysis_cls, method
    ):
        counters = dict.fromkeys(_RUNG_COUNTERS, 0)
        for taskset in _matrix():
            cache = AnalysisCache()
            fast = analysis_cls(cache=cache, method=method)
            full = analysis_cls(method=method)
            schedulable = [
                full.response_time(taskset, task).schedulable
                for task in taskset
            ]
            for task, expected in zip(taskset, schedulable):
                assert fast.verdict(taskset, task) == expected, (
                    taskset, task.name,
                )
            for name in counters:
                counters[name] += cache.counters.get(name, 0)
            # The sweep's path: the set screened at once, then the
            # ladder until the first negative verdict.
            first = analysis_cls(method=method).first_unschedulable(taskset)
            assert first == next(
                (t for t, ok in zip(taskset, schedulable) if not ok), None
            ), taskset
        # Every rung fires somewhere on the matrix, so a ladder that
        # sent each task straight to the integer fixpoint would show.
        # WASLY has no LS case (b), the rung that screens out here; the
        # closed-form method stops at the closed-form rung.
        if method == "closed_form":
            counters = {"closed_form_screens": counters["closed_form_screens"]}
        elif not analysis_cls._supports_ls:
            del counters["screened_out"]
        assert all(counters.values()), counters

    @pytest.mark.parametrize("analysis_cls", [ProposedAnalysis, WaslyAnalysis])
    def test_sweep_builds_each_deadline_model_once(
        self, analysis_cls, monkeypatch
    ):
        # Only the probe builds the model at the deadline window
        # t_D = D - C - u, once, on a memo miss, and only for a task the
        # ladder reaches: a task after the first miss costs no model.
        builds = []

        def counting_build(taskset, task, window, mode, **kwargs):
            builds.append((task.name, mode, window))
            return build_delay_milp(taskset, task, window, mode, **kwargs)

        monkeypatch.setattr(
            response_time_module, "build_delay_milp", counting_build
        )
        deadline_builds = unreached = 0
        for taskset in _matrix():
            builds.clear()
            first = analysis_cls().first_unschedulable(taskset)
            reached = True
            for task in taskset:
                t_d = task.deadline - task.exec_time - task.copy_out
                count = sum(
                    name == task.name and window == t_d
                    for name, _, window in builds
                )
                assert count <= 1, (taskset, task.name, builds)
                deadline_builds += count
                if not reached:
                    assert all(name != task.name for name, _, _ in builds), (
                        taskset, task.name, builds,
                    )
                    unreached += 1
                reached = reached and task != first
        assert deadline_builds > 0
        # The matrix has tasks after a first miss, so the second check
        # is exercised.
        assert unreached > 0

    def test_lb_entries_never_leak_into_wcrt_values(self):
        options = AnalysisOptions(stop_at_deadline=False)
        for taskset in _matrix(_MATRIX[:1]):
            cache = AnalysisCache()
            analysis = ProposedAnalysis(options, cache=cache)
            for task in taskset:
                analysis.verdict(taskset, task)
            after_verdicts = analysis.analyze(taskset)
            fresh = ProposedAnalysis(options).analyze(taskset)
            assert [r.wcrt for r in after_verdicts.results] == [
                r.wcrt for r in fresh.results
            ]

    def test_target_stop_is_memoised_as_a_lower_bound(self):
        taskset = next(
            ts for ts in _matrix()
            if ProposedAnalysis().first_unschedulable(ts) is not None
        )
        cache = AnalysisCache()
        first = ProposedAnalysis(cache=cache)
        verdicts = [first.verdict(taskset, task) for task in taskset]
        assert cache.counters.get("milp_target_stops", 0) > 0
        assert any(
            isinstance(v, tuple) and v[0] == "lb"
            for v in cache._entries.values()
        )
        # A second analysis on the same cache answers from the lb tier.
        before = cache.counters.get("milp_solves", 0)
        second = ProposedAnalysis(cache=cache)
        assert [second.verdict(taskset, task) for task in taskset] == verdicts
        assert cache.counters.get("milp_solves", 0) == before


def _zero_gap_optimum(model: MilpModel) -> float:
    """The optimum at zero MIP gap, straight from HiGHS."""
    compiled = model.compile()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options")
        result = milp(
            c=-compiled.objective,
            constraints=LinearConstraint(
                compiled.row_matrix, compiled.row_lower, compiled.row_upper
            ),
            bounds=Bounds(compiled.var_lower, compiled.var_upper),
            integrality=compiled.integrality,
            options={"mip_rel_gap": 0.0, "mip_abs_gap": 0.0},
        )
    assert result.status == 0, result.message
    return -result.fun + compiled.objective_constant


@pytest.fixture(scope="module")
def probe_queries():
    """The probe's question at ``t_D`` for every task of the matrix."""
    analysis = ProposedAnalysis()
    return [
        _Query(analysis, taskset, task)
        for taskset in _matrix()
        for task in taskset
    ]


class TestProbeCutoffOnGeneratedMatrix:
    def test_cutoff_answers_bound_the_zero_gap_optimum(self, probe_queries):
        statuses = set()
        for query in probe_queries:
            model = query.deadline_model.model
            optimum = _zero_gap_optimum(model)
            answer = HighsBackend().solve(
                model, target=query.theta, cutoff=query.cutoff
            )
            task = query.task
            label = (query.taskset, task.name, optimum)
            if answer.status is SolveStatus.BELOW_CUTOFF:
                assert answer.objective >= optimum, label
                assert optimum <= task.deadline - task.copy_out, label
            else:
                assert answer.status is SolveStatus.TARGET_REACHED, label
                assert optimum > query.theta, label
            statuses.add(answer.status)
        assert statuses == {
            SolveStatus.BELOW_CUTOFF, SolveStatus.TARGET_REACHED
        }

    def test_the_zero_schedule_is_feasible(self, probe_queries):
        # So a probe that comes back infeasible under its cutoff has
        # pruned every schedule, and has not hidden a broken model.
        for query in probe_queries:
            model = query.deadline_model.model
            compiled = model.compile()
            zero = np.clip(
                np.zeros(compiled.num_vars),
                compiled.var_lower,
                compiled.var_upper,
            )
            assert model.check_assignment(zero) == [], query.task.name

    def test_cutoff_proof_is_memoised_as_an_upper_bound(self):
        for taskset in _matrix():
            cache = AnalysisCache()
            first = ProposedAnalysis(cache=cache)
            verdicts = [first.verdict(taskset, task) for task in taskset]
            proofs = cache.counters.get("milp_cutoff_proofs", 0)
            if proofs:
                break
        bounds = [
            v[1] for v in cache._entries.values()
            if isinstance(v, tuple) and v[0] == "ub"
        ]
        assert proofs > 0 and len(bounds) == proofs
        # A second analysis on the same cache proves from the ub tier.
        solves = cache.counters["milp_solves"]
        second = ProposedAnalysis(cache=cache)
        assert [second.verdict(taskset, task) for task in taskset] == verdicts
        assert cache.counters["milp_solves"] == solves
        assert cache.counters["milp_cutoff_proofs"] == proofs


class _StopsAtEveryTarget:
    """A backend that claims a target stop on every targeted solve."""

    name = "stops-at-every-target"

    def __init__(self):
        self.targets = []

    def solve(self, model, target=None, cutoff=None):
        self.targets.append(target)
        return MilpSolution(status=SolveStatus.TARGET_REACHED, objective=target)


class _FailsUnderCutoff:
    """HiGHS, except that every solve under a cutoff (the probe) fails."""

    name = "fails-under-cutoff"

    def solve(self, model, target=None, cutoff=None):
        if cutoff is not None:
            raise BackendUnavailableError("probe unavailable")
        return HighsBackend().solve(model, target=target)


class TestStepTargets:
    def test_step_start_opens_the_deadline_windows_step(self, probe_queries):
        raised = 0
        for query in probe_queries:
            analysis, task = query.analysis, query.task
            start = analysis._step_start(query)
            step = analysis._staircase(query, query.deadline_window)
            assert task.copy_in <= start <= query.deadline_window
            assert analysis._staircase(query, start) == step, task.name
            if start > task.copy_in:
                below = math.nextafter(start, -math.inf)
                assert analysis._staircase(query, below) != step, task.name
                raised += 1
        assert raised > 0

    def test_step_target_is_the_least_delay_reaching_the_step(
        self, probe_queries
    ):
        for query in probe_queries:
            task = query.task
            start = query.analysis._step_start(query)
            target = query.analysis._step_target(query)
            assert target <= query.theta
            if target < query.theta and start > task.copy_in:
                assert _window(task, target + task.copy_out) >= start
                below = math.nextafter(target, -math.inf)
                assert _window(task, below + task.copy_out) < start

    def test_a_stop_at_the_step_target_is_a_miss_not_convergence(
        self, probe_queries
    ):
        backend = _StopsAtEveryTarget()
        analysis = ProposedAnalysis(
            backend_factory=lambda: backend, cache=AnalysisCache()
        )
        eps = analysis.options.convergence_eps
        for probe in probe_queries:
            query = _Query(analysis, probe.taskset, probe.task)
            task = query.task
            step_target = analysis._step_target(query)
            # A step target the first iteration uses: it moves the
            # first response by more than the convergence tolerance.
            if step_target + task.copy_out > task.total_cost + eps and (
                step_target < query.theta
            ):
                break
        else:
            pytest.fail("no task on the matrix has a usable step target")
        result = analysis._iterate(query, query.theta, step_target)
        # The stop is only a lower bound below D - u: the iteration
        # must end as a miss on it, never test it for convergence.
        assert step_target + task.copy_out <= task.deadline
        assert backend.targets == [step_target]
        assert not result.converged
        assert result.wcrt == math.inf
        # A step target within convergence_eps of the response could
        # converge the untargeted iteration on its value, so that
        # iteration keeps theta.
        backend.targets.clear()
        near = task.total_cost - task.copy_out + eps / 2
        analysis._iterate(query, query.theta, near)
        assert backend.targets == [query.theta]

    def test_a_degraded_probe_keeps_the_deadline_target(self):
        # A degraded probe answer is only an upper bound on f(t_D): it
        # disproves nothing, so the fixpoint must not stop at t_D's
        # step. Every probe degrades here; the verdicts must still be
        # the full analysis's.
        for taskset in _matrix():
            fast = ProposedAnalysis(backend_factory=_FailsUnderCutoff)
            full = ProposedAnalysis()
            for task in taskset:
                expected = full.response_time(taskset, task).schedulable
                assert fast.verdict(taskset, task) == expected, (
                    taskset, task.name,
                )

    @pytest.mark.parametrize("analysis_cls", [ProposedAnalysis, WaslyAnalysis])
    def test_fixpoint_solves_stop_below_theta_on_generated_matrix(
        self, analysis_cls, monkeypatch
    ):
        stops = []
        solve = ProposedAnalysis._solve

        def recording_solve(self, built, key, taskset, task, target=None,
                            cutoff=None):
            answer = solve(self, built, key, taskset, task, target, cutoff)
            theta = task.deadline - task.copy_out + TARGET_SLACK
            if cutoff is None and target is not None and target < theta:
                stops.append(answer.objective >= target)
            return answer

        monkeypatch.setattr(ProposedAnalysis, "_solve", recording_solve)
        for taskset in _matrix():
            fast, full = analysis_cls(), analysis_cls()
            for task in taskset:
                expected = full.response_time(taskset, task).schedulable
                assert fast.verdict(taskset, task) == expected, (
                    taskset, task.name,
                )
        assert any(stops), stops


def test_warm_rerun_on_a_cold_store_solves_nothing(tmp_path):
    full = figure2_config("fig2a", sets_per_point=2, seed=2020)
    config = dataclasses.replace(full, points=full.points[2:5:2])
    path = str(tmp_path / "store.sqlite")
    cold = run_experiment(config, cache_path=path)
    warm = run_experiment(config, cache_path=path)
    assert [p.ratios for p in warm.points] == [p.ratios for p in cold.points]
    cold_stats = aggregate_analysis_stats(cold.points)
    warm_stats = aggregate_analysis_stats(warm.points)
    assert cold_stats["milp_target_stops"] > 0
    assert warm_stats["milp_solves"] == 0
    assert warm_stats["lp_solves"] == 0
