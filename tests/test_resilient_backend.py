"""One solver path: HiGHS's option ladder, then the analysis's
safe-degradation chain (LP relaxation, then the closed form)."""

import numpy as np
import pytest

import repro.milp.highs as highs_module
from repro.analysis.interface import AnalysisOptions
from repro.analysis.proposed.closed_form import closed_form_delay_bound
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.analysis.proposed.response_time import (
    TARGET_SLACK,
    ProposedAnalysis,
    _Query,
)
from repro.errors import BackendUnavailableError
from repro.experiments.config import figure2_config
from repro.faults import FaultPlan, FaultSpec, injecting
from repro.generator.taskset_gen import generate_tasksets
from repro.milp import (
    DegradationLevel,
    HighsBackend,
    LpRelaxationBackend,
    MilpModel,
    MilpSolution,
    SolveStatus,
)
from repro.milp.model import MilpBackend
from repro.model.taskset import TaskSet


@pytest.fixture
def reference_taskset():
    return TaskSet.from_parameters(
        [
            ("a", 1.0, 0.2, 0.2, 10.0, 9.0),
            ("b", 2.0, 0.4, 0.4, 20.0, 16.0),
            ("c", 3.0, 0.5, 0.5, 40.0, 35.0),
        ]
    )


@pytest.fixture
def reference_task(reference_taskset):
    return reference_taskset.by_name("c")


@pytest.fixture
def reference_milp(reference_taskset, reference_task):
    task = reference_task
    window = task.deadline - task.exec_time - task.copy_out
    built = build_delay_milp(reference_taskset, task, window, AnalysisMode.NLS)
    return built.model


class _AlwaysFail(MilpBackend):
    name = "always_fail"

    def __init__(self):
        self.calls = 0

    def solve(self, model):
        self.calls += 1
        raise BackendUnavailableError("injected fault")


#: Options every HiGHS attempt carries, ladder rungs included.
_ZERO_GAP = {"mip_rel_gap": 0.0, "mip_abs_gap": 0.0}


def _count_milp_calls(monkeypatch):
    """Wrap scipy's milp as HighsBackend calls it; returns the call log."""
    calls = []
    real = highs_module.milp

    def counting(*args, **kwargs):
        calls.append(kwargs.get("options") or {})
        return real(*args, **kwargs)

    monkeypatch.setattr(highs_module, "milp", counting)
    return calls


def _degrade(analysis, model, taskset, task):
    return analysis._solve_model(model, _Query(analysis, taskset, task))


class TestRetries:
    def test_transient_failures_are_retried(self, reference_milp, monkeypatch):
        calls = _count_milp_calls(monkeypatch)
        plan = FaultPlan(
            specs=(FaultSpec(site="solver.fault", mode="crash", times=2),),
            name="two-crashes",
        )
        with injecting(plan) as scope:
            solution = HighsBackend().solve(reference_milp)
        assert len(scope.fired) == 2
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.degradation is DegradationLevel.EXACT
        # The two injected attempts never reach scipy; the third rung
        # of the ladder is the one that solves.
        assert calls == [{**_ZERO_GAP, "mip_feasibility_tolerance": 1e-7}]

    def test_no_retry_on_definitive_result(self, reference_milp, monkeypatch):
        calls = _count_milp_calls(monkeypatch)
        HighsBackend().solve(reference_milp)
        assert calls == [_ZERO_GAP]


class TestFallbackChainIsSafe:
    """Every degradation level upper-bounds the exact MILP objective."""

    def test_dual_bound_level(self, monkeypatch):
        # A time-limit stop reports max(incumbent, dual bound): the
        # dual bound of a maximisation is at least the optimum.
        class _Stopped:
            status = 1
            x = np.array([0.0, 1.0])
            mip_dual_bound = -2.5  # scipy minimises -(x + y)
            mip_node_count = 7

        monkeypatch.setattr(highs_module, "milp", lambda **_: _Stopped())
        m = MilpModel("probe")
        x = m.var("x", 0.0, 1.0, integer=True)
        y = m.var("y", 0.0, 2.0)
        m.add(x + y <= 2.5)
        m.maximize(x + y)
        solution = HighsBackend(time_limit=1.0).solve(m)
        assert solution.status is SolveStatus.TIME_LIMIT
        assert solution.objective == pytest.approx(2.5)

    def test_lp_relaxation_level(
        self, reference_taskset, reference_task, reference_milp
    ):
        exact = HighsBackend().solve(reference_milp).objective
        analysis = ProposedAnalysis(backend_factory=_AlwaysFail)
        solution = _degrade(
            analysis, reference_milp, reference_taskset, reference_task
        )
        assert solution.degradation is DegradationLevel.LP_RELAXATION
        assert solution.backend == "lp_relaxation"
        assert solution.objective >= exact - 1e-9

    def test_closed_form_level(
        self, reference_taskset, reference_task, reference_milp, monkeypatch
    ):
        """The closed-form rung upper-bounds the exact MILP *fixpoint*.

        Unlike the LP rung (compared objective-to-objective at the same
        window), the closed form is itself a fixpoint analysis, so the
        safety statement is at the WCRT level.
        """
        task = reference_task
        exact_wcrt = (
            ProposedAnalysis(AnalysisOptions(stop_at_deadline=False))
            .response_time(reference_taskset, task)
            .wcrt
        )
        cf_wcrt = closed_form_delay_bound(
            reference_taskset, task, blocking_intervals=2, urgent_possible=True
        )
        assert cf_wcrt >= exact_wcrt - 1e-9

        monkeypatch.setattr(
            LpRelaxationBackend,
            "solve_compiled",
            lambda self, compiled: MilpSolution(status=SolveStatus.ERROR),
        )
        analysis = ProposedAnalysis(backend_factory=_AlwaysFail)
        solution = _degrade(analysis, reference_milp, reference_taskset, task)
        assert solution.degradation is DegradationLevel.CLOSED_FORM
        assert solution.backend == "closed_form"
        assert solution.objective + task.copy_out == pytest.approx(cf_wcrt)
        assert solution.objective + task.copy_out >= exact_wcrt - 1e-9


class TestAnalysisIntegration:
    def test_options_resilience_routes_solves(self, reference_taskset):
        """With a dead solver and default options, solves route through
        the degradation chain: the analysis still upper-bounds the exact
        one and says it degraded."""
        # True fixpoints (no deadline early-out) so the two runs are
        # comparable point-for-point.
        options = AnalysisOptions(stop_at_deadline=False)
        exact = ProposedAnalysis(options).analyze(reference_taskset)
        dead = _AlwaysFail()
        degraded = ProposedAnalysis(
            options, backend_factory=lambda: dead
        ).analyze(reference_taskset)
        assert dead.calls > 0
        for task in reference_taskset:
            exact_wcrt = exact.result_for(task.name).wcrt
            result = degraded.result_for(task.name)
            assert result.wcrt >= exact_wcrt - 1e-9
            assert result.details["degradation"] >= (
                DegradationLevel.LP_RELAXATION
            )

    def test_garbage_backend_degrades_too(
        self, reference_taskset, reference_task, reference_milp
    ):
        class _Liar(MilpBackend):
            name = "liar"

            def solve(self, model):
                return MilpSolution(
                    status=SolveStatus.OPTIMAL, objective=float("nan")
                )

        exact = HighsBackend().solve(reference_milp).objective
        analysis = ProposedAnalysis(backend_factory=_Liar)
        solution = _degrade(
            analysis, reference_milp, reference_taskset, reference_task
        )
        assert solution.degradation is DegradationLevel.LP_RELAXATION
        assert solution.objective >= exact - 1e-9

    def test_degraded_values_are_never_cached(self, reference_taskset):
        analysis = ProposedAnalysis(
            AnalysisOptions(stop_at_deadline=False), backend_factory=_AlwaysFail
        )
        analysis.analyze(reference_taskset)
        # Every solve degraded, and none of their answers is memoised.
        assert analysis.cache.counters["milp_solves"] > 0
        assert not analysis.cache._entries


class TestDegradationRecording:
    def test_exact_solution_reports_exact_level(self):
        m = MilpModel()
        x = m.var("x", 0.0, 2.0)
        m.maximize(x)
        solution = HighsBackend().solve(m)
        assert solution.degradation is DegradationLevel.EXACT
        assert solution.objective == pytest.approx(2.0)

    def test_rung_numbers_are_stable(self):
        # Traces and failure ledgers carry the integer.
        assert int(DegradationLevel.EXACT) == 0
        assert int(DegradationLevel.LP_RELAXATION) == 2
        assert int(DegradationLevel.CLOSED_FORM) == 3


class TestLadderPin:
    """The one delay MILP of the reduced fig2a sweep (U=0.2-0.5, four
    sets per point, seed 2020) that has needed the ladder: U=0.5, task
    set 0, the ``proposed`` verdict's deadline-window solve of ``t3``
    with t1, t2 and t0 latency-sensitive. Some HiGHS builds fail it
    with the default options and answer on the ``presolve=False`` rung;
    whichever rung answers, the solve is exact and proves the delay
    within the target."""

    def test_pinned_solve_is_exact(self):
        config = figure2_config("fig2a", sets_per_point=4, seed=2020)
        points = [p for p in config.points if 0.2 - 1e-9 <= p.x <= 0.5 + 1e-9]
        assert points[-1].x == pytest.approx(0.5)
        taskset = next(
            iter(
                generate_tasksets(
                    points[-1].generation, 4, config.seed + len(points) - 1
                )
            )
        ).with_ls_marks(["t1", "t2", "t0"])
        task = taskset.by_name("t3")
        window = max(
            task.deadline - task.exec_time - task.copy_out, task.copy_in
        )
        built = build_delay_milp(taskset, task, window, AnalysisMode.NLS)
        assert built.model.name == "delay[t3,nls,N=10]"
        theta = task.deadline - task.copy_out + TARGET_SLACK
        analysis = ProposedAnalysis()
        solution = analysis._solve_model(
            built.model, _Query(analysis, taskset, task), target=theta
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.degradation is DegradationLevel.EXACT
        assert solution.objective == pytest.approx(19.555862894705697, abs=1e-6)
        assert theta == pytest.approx(19.560088840881143)
        assert solution.objective < theta
