"""Chaos: injected solver faults are absorbed by the one solver path.

The ``solver.fault`` site fires once per HiGHS attempt inside
``HighsBackend.solve`` — the attempt crashes, hangs, or answers
garbage — and the backend moves on to the next rung of its option
ladder, exactly as on HiGHS status 4: same optimum, bit-identical sweep
results. A fault that outlasts the ladder degrades the analysis to a
safe bound instead of failing the task set.
"""

import math

import pytest

from repro.analysis.interface import AnalysisOptions
from repro.analysis.proposed import ProposedAnalysis
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.errors import BackendUnavailableError
from repro.experiments import ExperimentConfig, SweepPoint, run_experiment
from repro.faults import FaultPlan, FaultSpec, injecting
from repro.generator.taskset_gen import GenerationConfig
from repro.milp import DegradationLevel, HighsBackend, SolveStatus
from repro.model.taskset import TaskSet
from repro.obs import read_trace, recording


@pytest.fixture
def reference_taskset():
    return TaskSet.from_parameters(
        [
            ("a", 1.0, 0.2, 0.2, 10.0, 9.0),
            ("b", 2.0, 0.4, 0.4, 20.0, 16.0),
        ]
    )


@pytest.fixture
def reference_milp(reference_taskset):
    task = reference_taskset.by_name("b")
    window = task.deadline - task.exec_time - task.copy_out
    return build_delay_milp(
        reference_taskset, task, window, AnalysisMode.NLS
    ).model


def _always(mode):
    return FaultPlan(
        specs=(FaultSpec(site="solver.fault", mode=mode, times=None),),
        name=f"always-{mode}",
    )


class TestInjectedSolverFaults:
    @pytest.mark.parametrize("mode", ["crash", "timeout", "garbage"])
    def test_one_injected_fault_is_retried_away(self, reference_milp, mode):
        plan = FaultPlan(
            specs=(FaultSpec(site="solver.fault", mode=mode),), name="s"
        )
        clean = HighsBackend().solve(reference_milp)
        with recording() as recorder, injecting(plan) as scope:
            solution = HighsBackend().solve(reference_milp)
        assert [f.mode for f in scope.fired] == [mode]
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.degradation is DegradationLevel.EXACT
        assert solution.objective == pytest.approx(clean.objective)
        # The retry is visible, not silent: one ladder rung was taken.
        retries = [e for e in recorder.events if e["name"] == "highs.retry"]
        assert [e["f"]["options"] for e in retries] == [{"presolve": False}]

    def test_persistent_faults_exhaust_into_failure(self, reference_milp):
        # Every attempt of the ladder is injected, so the backend
        # itself gives up — naming each failed attempt.
        with injecting(_always("crash")) as scope:
            with pytest.raises(
                BackendUnavailableError, match="every option set"
            ) as excinfo:
                HighsBackend().solve(reference_milp)
        assert len(scope.fired) == 4
        assert str(excinfo.value).count("injected crash") == 4

    def test_garbage_solution_never_escapes(self, reference_milp):
        # Even when every attempt answers garbage, no caller sees a
        # non-finite objective: the backend raises, and the analysis
        # degrades to a finite safe bound.
        with injecting(_always("garbage")):
            with pytest.raises(BackendUnavailableError):
                HighsBackend().solve(reference_milp)


class TestInjectedAnalysis:
    @pytest.mark.parametrize("mode", ["crash", "timeout", "garbage"])
    def test_persistent_fault_degrades_to_a_safe_bound(
        self, reference_taskset, mode
    ):
        options = AnalysisOptions(stop_at_deadline=False)
        exact = ProposedAnalysis(options).analyze(reference_taskset)
        with injecting(_always(mode)):
            degraded = ProposedAnalysis(options).analyze(reference_taskset)
        for task in reference_taskset:
            result = degraded.result_for(task.name)
            assert math.isfinite(result.wcrt)
            assert result.wcrt >= exact.result_for(task.name).wcrt - 1e-9
            assert result.details["degradation"] >= (
                DegradationLevel.LP_RELAXATION
            )


class TestSweepEquivalence:
    """Contract: an injected-solver-fault sweep is byte-identical to
    the fault-free run of the same configuration."""

    @pytest.fixture
    def config(self):
        # Both task sets reach HiGHS: the chain bound decides some of
        # their probes, but not every solve a verdict needs.
        return ExperimentConfig(
            name="chaos-solver",
            x_label="U",
            points=(
                SweepPoint(
                    0.6, GenerationConfig(n=3, utilization=0.6, gamma=0.1)
                ),
            ),
            sets_per_point=2,
            seed=22,
            protocols=("proposed",),
            method="milp",
        )

    def test_injected_sweep_matches_clean_sweep(self, config, tmp_path):
        clean = run_experiment(config)
        plan = FaultPlan(
            specs=(FaultSpec(site="solver.fault", mode="crash"),),
            name="one-crash-per-unit",
        )
        trace = tmp_path / "trace.jsonl"
        injected = run_experiment(
            config, fault_plan=plan, trace_path=str(trace)
        )
        assert [p.ratios for p in injected.points] == [
            p.ratios for p in clean.points
        ]
        assert injected.failures == clean.failures == ()
        assert [dict(p.analysis_stats) for p in injected.points] == [
            dict(p.analysis_stats) for p in clean.points
        ]
        fired = [
            e
            for e in read_trace(trace)
            if e["name"] == "fault.solver.fault"
        ]
        # times=1 with a fresh scope per unit: one crash per task set.
        assert len(fired) == config.sets_per_point
        assert {e["f"]["mode"] for e in fired} == {"crash"}
