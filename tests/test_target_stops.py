"""Deadline-targeted integer solves and the ``lb`` cache tier.

A verdict only asks whether a delay exceeds ``D - u``, so its integer
solves carry that value as an objective target and HiGHS may stop at
the first incumbent beyond it. These tests pin the three layers: the
backend's ``TARGET_REACHED`` status, the rank-ordered ``lb`` entries of
the analysis cache, and verdicts/WCRTs that the early stops never move.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.analysis.proposed.response_time as response_time_module
import repro.milp.highs as highs_module
from repro.analysis.cache import AnalysisCache, _entry_rank
from repro.analysis.interface import AnalysisOptions
from repro.analysis.proposed import ProposedAnalysis
from repro.analysis.proposed.formulation import build_delay_milp
from repro.analysis.wasly import WaslyAnalysis
from repro.experiments import run_experiment
from repro.experiments.config import figure2_config
from repro.experiments.report import aggregate_analysis_stats
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.milp import (
    BranchBoundBackend,
    HighsBackend,
    MilpModel,
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
    "lp_screens",
    "screened_out",
    "milp_solves",
    "milp_target_stops",
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
        # The LP screen and the probe share one query per task, so the
        # model at the deadline window t_D = D - C - u is built once.
        builds = []

        def counting_build(taskset, task, window, mode, **kwargs):
            builds.append((task.name, mode, window))
            return build_delay_milp(taskset, task, window, mode, **kwargs)

        monkeypatch.setattr(
            response_time_module, "build_delay_milp", counting_build
        )
        deadline_builds = 0
        for taskset in _matrix():
            builds.clear()
            analysis_cls().first_unschedulable(taskset)
            for task in taskset:
                t_d = task.deadline - task.exec_time - task.copy_out
                count = sum(
                    name == task.name and window == t_d
                    for name, _, window in builds
                )
                assert count <= 1, (taskset, task.name, builds)
                deadline_builds += count
        assert deadline_builds > 0

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
