"""Regression tests for bugs found during development.

Each test reconstructs the exact triggering instance deterministically
(seeded generators) so the guard stays meaningful.
"""

import numpy as np
import pytest

from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.analysis.wasly import WaslyAnalysis
from repro.analysis.interface import AnalysisOptions
from repro.generator import GenerationConfig, generate_tasksets
from repro.milp import HighsBackend, SolveStatus
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.sim.interval_sim import WaslySimulator
from repro.sim.releases import sporadic_plan


class TestHighsPresolveWorkaround:
    def test_presolve_crashing_instance_solves(self):
        """Some HiGHS builds fail (status 4) in presolve on this delay
        MILP; the backend must fall back to presolve-off and succeed.

        Instance: seed-42 workload #3, task t2, second fixpoint window.
        """
        cfg = GenerationConfig(n=6, utilization=0.5, gamma=0.3, beta=0.5)
        ts = list(generate_tasksets(cfg, 4, seed=42))[3]
        task = ts.by_name("t2")
        first = build_delay_milp(
            ts, task, task.copy_in, AnalysisMode.NLS
        ).model.solve(HighsBackend())
        assert first.status is SolveStatus.OPTIMAL
        window = first.objective - task.exec_time
        built = build_delay_milp(ts, task, window, AnalysisMode.NLS)
        solution = built.model.solve(HighsBackend())
        assert solution.status is SolveStatus.OPTIMAL
        assert np.isfinite(solution.objective)


class TestReleaseBubbleSoundness:
    def test_bubble_schedule_within_bound(self):
        """The release-bubble schedule that broke the naive
        ``min(2,|lp|)`` interval count: a mid-interval release whose
        copy-in runs with an idle CPU (sim observed 1.0337 vs a 1.0
        bound before the fix)."""
        ts = TaskSet(
            [
                Task.sporadic("t0", exec_time=0.5, period=8.0,
                              deadline=8.0, priority=0),
                Task.sporadic("t1", exec_time=0.5, period=8.8,
                              deadline=8.8, copy_in=0.05, copy_out=0.05,
                              priority=1),
            ]
        )
        rng = np.random.default_rng(0)
        plan = sporadic_plan(ts, 400.0, rng)
        trace = WaslySimulator(ts).run(plan)
        analysis = WaslyAnalysis(AnalysisOptions(stop_at_deadline=False))
        for task in ts:
            bound = analysis.response_time(ts, task).wcrt
            assert trace.max_response_time(task.name) <= bound + 1e-6

    def test_bubble_costs_one_extra_interval(self):
        """With exactly one lp task the interval count still charges
        two structural intervals (blocking OR bubble can each occur)."""
        from repro.analysis.proposed.intervals import interval_count_nls

        ts = TaskSet(
            [
                Task.sporadic("hi", exec_time=1.0, period=10.0,
                              deadline=9.0, priority=0),
                Task.sporadic("lo", exec_time=2.0, period=20.0,
                              deadline=19.0, priority=1),
            ]
        )
        hi = ts.by_name("hi")
        # no hp tasks: N = 0 + 2 (blocking/bubble) + 1 (execution)
        assert interval_count_nls(ts, hi, 5.0) == 3


class TestDualBoundAtOptimality:
    def test_time_limited_optimal_solve_keeps_incumbent(self):
        """The dual bound once corrupted *optimal* objectives with
        stale HiGHS dual bounds, flattening every experiment to zero;
        the dual bound may only be used on genuine early stops."""
        from repro.milp import MilpModel

        m = MilpModel()
        x = m.binary("x")
        y = m.binary("y")
        m.add(x + y <= 1)
        m.maximize(2 * x + 3 * y)
        sol = m.solve(HighsBackend(time_limit=60.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0)
