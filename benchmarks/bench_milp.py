"""Analysis-runtime benchmarks (the paper's Sec. VII runtime note).

The paper reports average analysis times "in the order of a few
hundreds of seconds" per task set with IBM CPLEX on an i7-6700K —
including the greedy algorithm's repeated analyses. These benchmarks
measure the same pipeline on our HiGHS-based stack: a single delay-MILP
solve, one task's response-time fixpoint, and a full greedy run.
"""

import pytest

from repro.analysis.interface import AnalysisOptions
from repro.analysis.ls_assignment import greedy_ls_assignment
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.generator import GenerationConfig, generate_taskset
from repro.milp import BranchBoundBackend, HighsBackend, SolveStatus

import numpy as np


@pytest.fixture(scope="module")
def taskset():
    rng = np.random.default_rng(2020)
    return generate_taskset(
        GenerationConfig(n=6, utilization=0.4, gamma=0.3, beta=0.5), rng
    )


@pytest.fixture(scope="module")
def lowest_priority_task(taskset):
    return taskset[len(taskset) - 1]


@pytest.mark.benchmark(group="milp")
def test_build_delay_milp(benchmark, taskset, lowest_priority_task):
    """Constraint-generation time for a mid-size window."""
    built = benchmark(
        build_delay_milp, taskset, lowest_priority_task, 30.0,
        AnalysisMode.NLS,
    )
    assert built.model.stats()["constraints"] > 0


@pytest.mark.benchmark(group="milp")
def test_solve_delay_milp_highs(benchmark, taskset, lowest_priority_task):
    """One HiGHS solve of the delay MILP (the inner loop of Sec. V)."""
    built = build_delay_milp(
        taskset, lowest_priority_task, 30.0, AnalysisMode.NLS
    )

    def solve():
        return built.model.solve(HighsBackend())

    solution = benchmark(solve)
    assert solution.status is SolveStatus.OPTIMAL


@pytest.mark.benchmark(group="milp")
def test_solve_delay_milp_branch_bound(benchmark, taskset):
    """The pure-Python backend on a small window (cross-check cost)."""
    task = taskset[1]
    built = build_delay_milp(taskset, task, 5.0, AnalysisMode.NLS)

    def solve():
        return built.model.solve(BranchBoundBackend(max_nodes=200_000))

    solution = benchmark.pedantic(solve, rounds=2, iterations=1)
    assert solution.status is SolveStatus.OPTIMAL


@pytest.mark.benchmark(group="analysis")
def test_response_time_fixpoint(benchmark, taskset):
    """Full iterated WCRT of the highest-priority task."""
    analysis = ProposedAnalysis(AnalysisOptions(stop_at_deadline=False))

    result = benchmark.pedantic(
        lambda: analysis.response_time(taskset, taskset[0]),
        rounds=2,
        iterations=1,
    )
    assert result.converged


@pytest.mark.benchmark(group="analysis")
def test_greedy_assignment_full_pipeline(benchmark, taskset):
    """The complete Sec. VI loop (paper: 'hundreds of seconds' with
    CPLEX at their scale; minutes-to-seconds at ours)."""
    outcome = benchmark.pedantic(
        lambda: greedy_ls_assignment(taskset, collect_results=False),
        rounds=1,
        iterations=1,
    )
    assert outcome.rounds >= 1


@pytest.mark.benchmark(group="analysis")
def test_greedy_assignment_cached_vs_uncached(benchmark, taskset):
    """Memoised greedy run: strictly fewer MILP solves, same outcome.

    The cached pass re-runs the exact greedy pipeline inside a fresh
    cache scope; the uncached pass uses a disabled cache with identical
    instrumentation, measuring the seed behaviour.
    """
    from repro.analysis.cache import AnalysisCache, cache_scope

    def run(enabled):
        cache = AnalysisCache(enabled=enabled)
        with cache_scope(cache):
            outcome = greedy_ls_assignment(taskset, collect_results=False)
        return outcome, cache.stats()

    baseline, baseline_stats = run(enabled=False)
    outcome, stats = benchmark.pedantic(
        lambda: run(enabled=True), rounds=1, iterations=1
    )
    assert outcome.schedulable == baseline.schedulable
    assert outcome.ls_names == baseline.ls_names
    assert stats["milp_solves"] <= baseline_stats["milp_solves"]
    print(
        f"\nMILP solves: {stats['milp_solves']} cached "
        f"vs {baseline_stats['milp_solves']} uncached "
        f"({stats['hits']} cache hits)"
    )
