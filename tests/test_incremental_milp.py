"""Incremental MILP retargeting and the warm-started fixpoint.

``update_delay_milp`` mutates only the window-dependent right-hand
sides of a live model; the contract is *bit-identity* with a fresh
build at the new window — same matrices, same row order, same audit
verdict — or ``None`` when the interval count changed and the caller
must rebuild. On top of it, the analysis keeps one compiled model per
fixpoint and squeezes converged iterations closed with the LP bound;
neither may ever change a WCRT.
"""

import numpy as np
import pytest

from repro.analysis.cache import AnalysisCache, cache_scope
from repro.analysis.interface import AnalysisOptions
from repro.analysis.proposed.formulation import (
    AnalysisMode,
    build_delay_milp,
    update_delay_milp,
)
from repro.analysis.proposed.response_time import (
    ProposedAnalysis,
    _IncrementalSlot,
    _Query,
)
from repro.errors import SolverError
from repro.milp.audit import audit_delay_milp
from repro.model.taskset import TaskSet
from repro.obs import recording

_COMPILED_FIELDS = (
    "objective",
    "row_matrix",
    "row_lower",
    "row_upper",
    "var_lower",
    "var_upper",
    "integrality",
)

#: Finite higher-priority WCRTs activate the jitter-aware refinement,
#: whose budget boundaries (``eta(w + R)``) move independently of the
#: paper-capped interval count — exactly the situation where an update
#: changes row bounds without changing the variable structure.
_HP_WCRT = {"a": 3.0, "b": 7.5}


@pytest.fixture
def ts():
    return TaskSet.from_parameters(
        [
            ("a", 1.0, 0.2, 0.2, 10.0, 9.0),
            ("b", 2.0, 0.3, 0.3, 20.0, 16.0),
            ("c", 3.0, 0.4, 0.4, 40.0, 36.0),
        ]
    )


def _assert_compiled_equal(left, right) -> None:
    for field in _COMPILED_FIELDS:
        assert np.array_equal(getattr(left, field), getattr(right, field)), field
    assert left.objective_constant == right.objective_constant
    assert [v.name for v in left.variables] == [v.name for v in right.variables]


class TestSetRhs:
    def test_set_rhs_patches_the_cached_compilation_in_place(self, ts):
        task = ts.by_name("c")
        built = build_delay_milp(ts, task, 8.0, AnalysisMode.NLS)
        model = built.model
        compiled = model.compile()
        assert model.set_rhs("C7[a]", 123.0)
        # Same compiled object, already carrying the new row bounds.
        assert model.compile() is compiled
        con = model.constraint_named("C7[a]")
        index = list(model.constraints).index(con)
        lower, upper = con.bounds()
        assert compiled.row_lower[index] == lower
        assert compiled.row_upper[index] == upper

    def test_set_rhs_on_an_unknown_row_reports_false(self, ts):
        task = ts.by_name("c")
        model = build_delay_milp(ts, task, 8.0, AnalysisMode.NLS).model
        assert not model.set_rhs("no-such-row", 1.0)

    def test_set_rhs_rejects_non_finite_bounds(self, ts):
        task = ts.by_name("c")
        model = build_delay_milp(ts, task, 8.0, AnalysisMode.NLS).model
        with pytest.raises(SolverError):
            model.set_rhs("C7[a]", float("nan"))


class TestUpdateDelayMilp:
    @pytest.mark.parametrize("w1, w2", [(14.5, 17.25), (15.0, 17.5)])
    def test_update_is_bit_identical_to_a_fresh_build(self, ts, w1, w2):
        task = ts.by_name("c")
        built = build_delay_milp(ts, task, w1, AnalysisMode.NLS, hp_wcrt=_HP_WCRT)
        before = np.array(built.model.compile().row_upper)
        updated = update_delay_milp(built, ts, task, w2, _HP_WCRT)
        assert updated is not None
        assert updated.window == w2
        fresh = build_delay_milp(ts, task, w2, AnalysisMode.NLS, hp_wcrt=_HP_WCRT)
        _assert_compiled_equal(updated.model.compile(), fresh.model.compile())
        # The retarget was not a no-op: some row bound really moved.
        assert not np.array_equal(before, fresh.model.compile().row_upper)

    def test_update_refuses_an_interval_count_change(self, ts):
        task = ts.by_name("c")
        built = build_delay_milp(ts, task, 8.0, AnalysisMode.NLS)
        assert update_delay_milp(built, ts, task, 30.0, None) is None

    def test_case_b_models_are_window_independent(self, ts):
        marked = ts.with_ls_marks(["a"])
        task = marked.by_name("a")
        built = build_delay_milp(marked, task, 0.0, AnalysisMode.LS_CASE_B)
        assert update_delay_milp(built, marked, task, 99.0, None) is built

    def test_updated_model_still_passes_the_audit(self, ts):
        task = ts.by_name("c")
        built = build_delay_milp(ts, task, 14.5, AnalysisMode.NLS, hp_wcrt=_HP_WCRT)
        updated = update_delay_milp(built, ts, task, 17.25, _HP_WCRT)
        assert updated is not None
        assert audit_delay_milp(updated, ts, task).ok


def _query(analysis, ts, name, hp_wcrt=None):
    query = _Query(analysis, ts, ts.by_name(name))
    assert query.mode is AnalysisMode.NLS
    query.hp_wcrt = hp_wcrt
    return query


class TestWarmStartedFixpoint:
    def test_successful_update_counts_as_a_warm_start(self, ts):
        cache = AnalysisCache()
        analysis = ProposedAnalysis(cache=cache)
        query = _query(analysis, ts, "c", _HP_WCRT)
        slot = _IncrementalSlot()
        with cache_scope(cache), recording() as recorder:
            analysis._obtain_model(slot, query, 14.5)
            analysis._obtain_model(slot, query, 17.25)
        assert cache.counters.get("milp_warm_starts") == 1
        names = [e["name"] for e in recorder.events]
        assert "milp.incremental.update" in names

    def test_interval_count_change_is_a_visible_rebuild(self, ts):
        cache = AnalysisCache()
        analysis = ProposedAnalysis(cache=cache)
        query = _query(analysis, ts, "c")
        slot = _IncrementalSlot()
        with cache_scope(cache), recording() as recorder:
            analysis._obtain_model(slot, query, 8.0)
            analysis._obtain_model(slot, query, 30.0)
        assert not cache.counters.get("milp_warm_starts")
        names = [e["name"] for e in recorder.events]
        assert "milp.incremental.rebuild" in names

    def test_lp_squeeze_returns_the_incumbent_without_an_integer_solve(
        self, ts
    ):
        # When the LP bound cannot exceed the incumbent, a solved MILP
        # could not either (lp >= opt and the fixpoint is monotone), so
        # the iteration closes at exactly the incumbent value.
        cache = AnalysisCache()
        analysis = ProposedAnalysis(cache=cache)
        incumbent = 1e6
        with cache_scope(cache):
            evaluated = analysis._delay(
                _query(analysis, ts, "c"),
                8.0,
                _IncrementalSlot(),
                incumbent=incumbent,
            )
        assert evaluated.objective == incumbent
        assert cache.counters.get("milp_warm_starts") == 1
        assert cache.counters.get("lp_solves") == 1
        assert not cache.counters.get("milp_solves")

    def test_wcrts_are_bit_identical_with_and_without_the_cache(self, ts):
        options = AnalysisOptions(stop_at_deadline=False)
        with cache_scope(AnalysisCache()):
            cached = ProposedAnalysis(options=options).analyze(ts)
        with cache_scope(AnalysisCache(enabled=False)):
            uncached = ProposedAnalysis(options=options).analyze(ts)
        assert [r.wcrt for r in cached.results] == [
            r.wcrt for r in uncached.results
        ]
        assert [r.iterations for r in cached.results] == [
            r.iterations for r in uncached.results
        ]
