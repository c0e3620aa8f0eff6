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


# ----------------------------------------------------------------------
# persistent cache + screening: the BENCH_milp.json artifact
# ----------------------------------------------------------------------
import json
import time
from pathlib import Path


@pytest.mark.benchmark(group="cache")
def test_persistent_cache_cold_warm(benchmark, tmp_path):
    """Unscreened baseline vs cold screened run vs warm persistent reruns.

    Four sequential passes over the reduced fig2a sweep (U=0.2..0.5,
    8 sets per point):

    1. **baseline** — ``AnalysisOptions(screening=False)``, no store:
       every verdict decided by the plain bottom-up MILP fixpoint;
    2. **cold** — screening on, fresh persistent store: the vectorised
       closed-form and block-LP screens absorb most integer solves
       while the store fills;
    3. **warm** — the same store again, traced: every unit is served
       by its stored row (no solve of any kind), and the trace must
       reconcile exactly with the reported counters;
    4. **other policy** — the same store under another failure policy,
       which keys other unit rows: every solve falls through to the
       per-solve persistent tier.

    Writes ``BENCH_milp.json`` next to the repo root. Acceptance bars:
    verdicts identical across all passes, the cold run issues <50% of
    the baseline's integer solves, the warm run solves nothing and
    counts one ``unit_store.hits`` per unit, the other-policy run's
    persistent hit rate is >=95% with integer solves <=5% of the cold
    run's, and the warm trace reconciles with no problems.
    """
    from _helpers import scaled_inset
    from repro.analysis.interface import AnalysisOptions
    from repro.experiments.report import aggregate_analysis_stats
    from repro.experiments.runner import run_experiment
    from repro.obs import aggregate_events, read_trace, reconcile

    config = scaled_inset("fig2a", 8, start=1, stop=5)  # U=.2,.3,.4,.5
    db = tmp_path / "analysis-cache.sqlite"
    trace = tmp_path / "warm.trace.jsonl"

    t0 = time.perf_counter()
    baseline = run_experiment(
        config, options=AnalysisOptions(screening=False)
    )
    baseline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold = run_experiment(config, cache_path=str(db))
    cold_s = time.perf_counter() - t0

    def warm_run():
        t0 = time.perf_counter()
        result = run_experiment(
            config, cache_path=str(db), trace_path=str(trace)
        )
        return result, time.perf_counter() - t0

    warm, warm_s = benchmark.pedantic(warm_run, rounds=1, iterations=1)

    t0 = time.perf_counter()
    other = run_experiment(config, cache_path=str(db), failure_policy="skip")
    other_s = time.perf_counter() - t0

    identical = all(
        a.ratios == b.ratios == c.ratios == d.ratios
        and a.failures == b.failures == c.failures == d.failures
        for a, b, c, d in zip(
            baseline.points, cold.points, warm.points, other.points
        )
    )
    base_stats = aggregate_analysis_stats(baseline.points)
    cold_stats = aggregate_analysis_stats(cold.points)
    warm_stats = aggregate_analysis_stats(warm.points)
    other_stats = aggregate_analysis_stats(other.points)
    reduction = (
        1.0 - cold_stats["milp_solves"] / base_stats["milp_solves"]
        if base_stats["milp_solves"]
        else 0.0
    )
    units = len(config.points) * config.sets_per_point
    served = other_stats["persistent.hits"]
    fall_throughs = served + other_stats["misses"]
    hit_rate = served / fall_throughs if fall_throughs else 0.0
    problems = reconcile(
        aggregate_events(read_trace(trace)), warm.points
    )

    artifact = {
        "experiment": "fig2a reduced (U=0.2..0.5, 8 sets/point)",
        "phases": {
            "baseline_unscreened": {
                "seconds": round(baseline_s, 3),
                "stats": dict(base_stats),
            },
            "cold_screened": {
                "seconds": round(cold_s, 3),
                "stats": dict(cold_stats),
            },
            "warm_unit_rows": {
                "seconds": round(warm_s, 3),
                "stats": dict(warm_stats),
            },
            "warm_other_policy": {
                "seconds": round(other_s, 3),
                "stats": dict(other_stats),
            },
        },
        "integer_solve_reduction_cold": round(reduction, 4),
        "warm_unit_store_hits": warm_stats["unit_store.hits"],
        "other_policy_persistent_hit_rate": round(hit_rate, 4),
        "other_policy_integer_solves": other_stats["milp_solves"],
        "verdicts_identical": identical,
        "profile_reconciles": not problems,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_milp.json"
    out.write_text(json.dumps(artifact, indent=2) + "\n")
    print()
    print(json.dumps(artifact, indent=2))

    assert identical, "cache/screening configuration changed a verdict"
    assert reduction > 0.5, (
        f"screens removed only {reduction:.1%} of the baseline's "
        f"{base_stats['milp_solves']} integer solves"
    )
    warm_work = dict(warm_stats)
    assert warm_work.pop("unit_store.hits") == units, warm_stats
    assert not any(warm_work.values()), (
        f"warm rerun did work its unit rows hold: {warm_stats}"
    )
    assert hit_rate >= 0.95, (
        f"other-policy persistent hit rate {hit_rate:.1%} < 95%"
    )
    assert other_stats["milp_solves"] <= 0.05 * cold_stats["milp_solves"], (
        f"other-policy run needed {other_stats['milp_solves']} integer solves"
    )
    assert not problems, problems
