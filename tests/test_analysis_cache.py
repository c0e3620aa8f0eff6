"""The analysis memo cache: storage semantics, keys, and solve savings."""

import pytest

from repro.analysis import cache as cache_module
from repro.analysis.cache import (
    AnalysisCache,
    active_cache,
    cache_scope,
    delay_milp_key,
)
from repro.analysis.interface import AnalysisOptions
from repro.analysis.ls_assignment import greedy_ls_assignment
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.model.taskset import TaskSet
from repro.obs import recording

_SIG = ("milp", "highs", None, None, "None")


@pytest.fixture
def ts():
    return TaskSet.from_parameters(
        [
            ("a", 1.0, 0.2, 0.2, 10.0, 9.0),
            ("b", 2.0, 0.3, 0.3, 20.0, 16.0),
            ("c", 3.0, 0.4, 0.4, 40.0, 36.0),
        ]
    )


class TestStorage:
    def test_hit_and_miss_counting(self):
        cache = AnalysisCache()
        assert cache.get("k") is None
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.counters == {"misses": 1, "hits": 1}
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        cache = AnalysisCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AnalysisCache(capacity=0)

    def test_disabled_cache_never_stores(self):
        cache = AnalysisCache(enabled=False)
        cache.put("k", 42)
        assert cache.get("k") is None
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1

    def test_stats_include_all_counters(self):
        cache = AnalysisCache()
        stats = cache.stats()
        for name in (
            "hits", "misses", "milp_solves", "lp_solves",
            "closed_form_screens", "screened_out",
        ):
            assert stats[name] == 0

    def test_put_never_downgrades_entry_rank(self):
        # Regression pin: a cutoff-proof bound must not overwrite an
        # exact MILP value.
        cache = AnalysisCache()
        cache.put("k", ("milp", 5.0))
        cache.put("k", ("ub", 7.0))
        assert cache.get("k") == ("milp", 5.0)

    def test_put_upgrades_ub_to_milp(self):
        cache = AnalysisCache()
        cache.put("k", ("ub", 7.0))
        cache.put("k", ("milp", 5.0))
        assert cache.get("k") == ("milp", 5.0)

    def test_put_keeps_exact_value_over_ub_bound(self):
        cache = AnalysisCache()
        cache.put("k", 5.0)
        cache.put("k", ("ub", 7.0))
        assert cache.get("k") == 5.0

    def test_clear_resets_entries_and_counters(self):
        cache = AnalysisCache()
        cache.put("k", 1)
        cache.get("k")
        cache.clear()
        assert len(cache) == 0
        assert cache.counters == {}
        assert cache.hit_rate == 0.0


class TestScoping:
    def test_no_scope_by_default(self):
        assert active_cache() is None

    def test_scope_installs_and_pops(self):
        with cache_scope() as outer:
            assert active_cache() is outer
            inner_cache = AnalysisCache()
            with cache_scope(inner_cache):
                assert active_cache() is inner_cache
            assert active_cache() is outer
        assert active_cache() is None

    def test_raising_body_leaves_the_stack_as_it_was(self):
        before = list(cache_module._SCOPES)
        with pytest.raises(RuntimeError):
            with cache_scope():
                raise RuntimeError("body fails")
        assert cache_module._SCOPES == before

    def test_analysis_adopts_scoped_cache(self, ts):
        with cache_scope() as cache:
            analysis = ProposedAnalysis()
            assert analysis.cache is cache
        outside = ProposedAnalysis()
        assert outside.cache is not cache

    def test_explicit_cache_wins_over_scope(self, ts):
        mine = AnalysisCache()
        with cache_scope():
            analysis = ProposedAnalysis(cache=mine)
            assert analysis.cache is mine


class TestKeys:
    def test_key_is_content_addressed_not_name_addressed(self, ts):
        renamed = TaskSet.from_parameters(
            [
                ("x", 1.0, 0.2, 0.2, 10.0, 9.0),
                ("y", 2.0, 0.3, 0.3, 20.0, 16.0),
                ("z", 3.0, 0.4, 0.4, 40.0, 36.0),
            ]
        )
        key_a = delay_milp_key(ts, ts[1], "nls", 5, (2, 1), 0, None, _SIG)
        key_b = delay_milp_key(
            renamed, renamed[1], "nls", 5, (2, 1), 0, None, _SIG
        )
        assert key_a == key_b

    def test_key_distinguishes_task_parameters(self, ts):
        other = TaskSet.from_parameters(
            [
                ("a", 1.5, 0.2, 0.2, 10.0, 9.0),  # different exec time
                ("b", 2.0, 0.3, 0.3, 20.0, 16.0),
                ("c", 3.0, 0.4, 0.4, 40.0, 36.0),
            ]
        )
        key_a = delay_milp_key(ts, ts[1], "nls", 5, (2, 1), 0, None, _SIG)
        key_b = delay_milp_key(other, other[1], "nls", 5, (2, 1), 0, None, _SIG)
        assert key_a != key_b

    def test_key_distinguishes_window_staircases(self, ts):
        base = delay_milp_key(ts, ts[1], "nls", 5, (2, 1), 0, None, _SIG)
        assert base != delay_milp_key(ts, ts[1], "nls", 6, (2, 1), 0, None, _SIG)
        assert base != delay_milp_key(ts, ts[1], "nls", 5, (3, 1), 0, None, _SIG)
        assert base != delay_milp_key(ts, ts[1], "nls", 5, (2, 1), 1, None, _SIG)
        assert base != delay_milp_key(ts, ts[1], "ls_a", 5, (2, 1), 0, None, _SIG)

    def test_key_distinguishes_solver_signature(self, ts):
        other_sig = ("milp", "highs", 5.0, None, "None")
        key_a = delay_milp_key(ts, ts[1], "nls", 5, (2, 1), 0, None, _SIG)
        key_b = delay_milp_key(ts, ts[1], "nls", 5, (2, 1), 0, None, other_sig)
        assert key_a != key_b


class TestBitIdentity:
    """Cached results equal the uncached seed behaviour exactly."""

    def test_wcrt_bit_identical_with_and_without_cache(self, ts):
        wcrts = {}
        for enabled in (True, False):
            analysis = ProposedAnalysis(cache=AnalysisCache(enabled=enabled))
            wcrts[enabled] = [analysis.response_time(ts, t).wcrt for t in ts]
        assert wcrts[True] == wcrts[False]

    def test_repeated_analysis_hits_and_matches(self, ts):
        cache = AnalysisCache()
        analysis = ProposedAnalysis(cache=cache)
        first = [analysis.response_time(ts, t).wcrt for t in ts]
        solves_after_first = cache.stats()["milp_solves"]
        second = [analysis.response_time(ts, t).wcrt for t in ts]
        assert first == second
        assert cache.stats()["hits"] > 0
        # The second pass is answered from the cache alone.
        assert cache.stats()["milp_solves"] == solves_after_first

    def test_verdicts_bit_identical_with_and_without_cache(self, ts):
        verdicts = {}
        for enabled in (True, False):
            analysis = ProposedAnalysis(cache=AnalysisCache(enabled=enabled))
            verdicts[enabled] = [analysis.verdict(ts, t) for t in ts]
        assert verdicts[True] == verdicts[False]

    def test_iteration_details_report_cache_hits(self, ts):
        cache = AnalysisCache()
        analysis = ProposedAnalysis(cache=cache)
        task = ts.by_name("c")
        analysis.response_time(ts, task)
        details = analysis.response_time(ts, task).details
        assert details["cache_hits"] > 0
        assert details["solves"] == 0


class TestGreedySolveSavings:
    """Acceptance: greedy LS on a 10-task set does strictly fewer solves."""

    @pytest.fixture
    def ten_task_set(self):
        config = GenerationConfig(n=10, utilization=0.3, gamma=0.1)
        return list(generate_tasksets(config, 4, 2020))[3]

    def test_strictly_fewer_milp_solves_same_outcome(self, ten_task_set):
        outcomes = {}
        stats = {}
        for enabled in (True, False):
            cache = AnalysisCache(enabled=enabled)
            with cache_scope(cache):
                out = greedy_ls_assignment(ten_task_set, collect_results=False)
            outcomes[enabled] = (out.schedulable, out.ls_names, out.rounds)
            stats[enabled] = cache.stats()
        # Same schedulability verdict, same LS marks, same round count...
        assert outcomes[True] == outcomes[False]
        # ...with strictly fewer MILP solves than the uncached seed path.
        assert stats[True]["milp_solves"] < stats[False]["milp_solves"]
        assert stats[True]["hits"] > 0
        assert stats[False]["hits"] == 0

    def test_greedy_multi_round_exercises_cache(self, ten_task_set):
        cache = AnalysisCache()
        with cache_scope(cache):
            out = greedy_ls_assignment(ten_task_set, collect_results=False)
        # The pinned seed needs several greedy rounds (two LS marks),
        # so re-analyses of unchanged tasks populate and hit the cache.
        assert out.rounds >= 3
        assert len(out.ls_names) == 2


class TestLpMethodCaching:
    def test_lp_method_counts_lp_solves(self, ts):
        cache = AnalysisCache()
        analysis = ProposedAnalysis(
            AnalysisOptions(), method="lp", cache=cache
        )
        with recording() as recorder:
            analysis.response_time(ts, ts.by_name("b"))
        stats = cache.stats()
        assert stats["lp_solves"] > 0
        assert stats["milp_solves"] == 0
        # The LP method is the only analysis that relaxes a model, so its
        # solves are the only ``cache.lp_solves`` events a trace can hold.
        assert stats["lp_solves"] == sum(
            e["f"]["amount"] for e in recorder.events
            if e["name"] == "cache.lp_solves"
        )
