"""HiGHS backend option paths: time limits and dual bounds."""

import numpy as np
import pytest

from repro.milp import HighsBackend, MilpModel, SolveStatus
from repro.milp.expr import LinExpr


def _hard_knapsack(n=16, seed=7):
    rng = np.random.default_rng(seed)
    values = rng.integers(10, 100, size=n).tolist()
    weights = rng.integers(5, 50, size=n).tolist()
    m = MilpModel("hard")
    xs = [m.binary(f"x{i}") for i in range(n)]
    m.add(
        LinExpr.total(w * x for w, x in zip(weights, xs))
        <= int(sum(weights) * 0.4)
    )
    m.maximize(LinExpr.total(v * x for v, x in zip(values, xs)))
    return m


class TestHighsOptions:
    def test_dual_bound_ignored_at_optimality(self):
        m = MilpModel()
        x = m.binary("x")
        m.add(x <= 1)
        m.maximize(3 * x)
        sol = m.solve(HighsBackend(time_limit=30.0))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0)

    def test_time_limit_does_not_break_small_models(self):
        m = _hard_knapsack(n=8)
        sol = m.solve(HighsBackend(time_limit=10.0))
        assert sol.status is SolveStatus.OPTIMAL

    def test_node_count_reported(self):
        m = _hard_knapsack()
        sol = m.solve(HighsBackend())
        assert sol.node_count is None or sol.node_count >= 0

    def test_runtime_recorded(self):
        m = _hard_knapsack(n=6)
        sol = m.solve(HighsBackend())
        assert sol.runtime_seconds > 0.0
        assert sol.backend == "highs"


class TestSolverChatter:
    def test_highs_prints_nothing_to_stdout(self, capfd):
        # HiGHS's MIP solver writes a debug line straight to fd 1 on this
        # model ("HighsMipSolverData::transformNewIntegerFeasibleSolution
        # tmpSolver.run();"); the backend keeps it off the caller's stdout.
        from repro.analysis.proposed.formulation import (
            AnalysisMode,
            build_delay_milp,
        )
        from repro.experiments import figure2_config
        from repro.generator.taskset_gen import generate_tasksets

        config = figure2_config("fig2a", sets_per_point=4, seed=2023)
        point = next(p for p in config.points if p.x == pytest.approx(0.5))
        taskset = next(iter(generate_tasksets(point.generation, 1, 2026)))
        taskset = taskset.with_ls_marks(["t0", "t2", "t3", "t4"])
        built = build_delay_milp(
            taskset, taskset.by_name("t2"), 24.49424114030047,
            AnalysisMode.LS_CASE_A,
        )
        capfd.readouterr()
        print("before", flush=True)
        solution = built.model.solve(HighsBackend())
        print("after", flush=True)
        assert solution.status is SolveStatus.OPTIMAL
        assert capfd.readouterr().out == "before\nafter\n"
