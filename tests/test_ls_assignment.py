"""Unit tests for the LS-marking policies (Sec. VI)."""

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.ls_assignment import (
    LS_POLICIES,
    all_ls_assignment,
    all_nls_assignment,
    greedy_ls_assignment,
    tightest_deadline_assignment,
)
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.errors import AnalysisError
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.model.taskset import TaskSet


@pytest.fixture
def easy_ts():
    return TaskSet.from_parameters(
        [
            ("a", 1.0, 0.2, 0.2, 10.0, 9.0),
            ("b", 2.0, 0.3, 0.3, 20.0, 16.0),
        ]
    )


@pytest.fixture
def ls_fixable_ts():
    """Schedulable only once the tight task is marked LS.

    'tight' suffers two blocking intervals as NLS (both heavies), which
    busts its deadline; as LS a single blocker fits.
    """
    return TaskSet.from_parameters(
        [
            ("tight", 1.0, 0.1, 0.1, 40.0, 7.2),
            ("heavy1", 5.0, 0.5, 0.5, 50.0, 50.0),
            ("heavy2", 5.0, 0.5, 0.5, 60.0, 60.0),
        ]
    )


class TestGreedy:
    def test_no_marks_needed(self, easy_ts):
        out = greedy_ls_assignment(easy_ts)
        assert out.schedulable
        assert out.ls_names == frozenset()
        assert out.rounds == 1
        assert out.final_result is not None

    def test_marks_fixable_task(self, ls_fixable_ts):
        out = greedy_ls_assignment(ls_fixable_ts)
        assert out.schedulable
        assert out.ls_names == frozenset({"tight"})
        assert out.rounds == 2
        assert out.history == (frozenset(), frozenset({"tight"}))

    def test_verdict_only_mode(self, ls_fixable_ts):
        out = greedy_ls_assignment(ls_fixable_ts, collect_results=False)
        assert out.schedulable
        assert out.final_result is None
        assert out.ls_names == frozenset({"tight"})

    def test_unschedulable_terminates(self):
        hopeless = TaskSet.from_parameters(
            [
                ("x", 1.0, 0.1, 0.1, 10.0, 1.05),
                ("y", 8.0, 0.8, 0.8, 20.0, 20.0),
            ]
        )
        out = greedy_ls_assignment(hopeless)
        assert not out.schedulable
        # The miss repeated on an already-LS task.
        assert "x" in out.ls_names

    def test_rounds_run_verdicts_and_only_the_final_marking_is_analysed(
        self, ls_fixable_ts, monkeypatch
    ):
        analysed = []
        analyze = ProposedAnalysis.analyze

        def recording_analyze(self, taskset):
            analysed.append(frozenset(t.name for t in taskset.ls_tasks))
            return analyze(self, taskset)

        monkeypatch.setattr(ProposedAnalysis, "analyze", recording_analyze)
        out = greedy_ls_assignment(ls_fixable_ts)
        assert out.rounds == 2
        assert analysed == [frozenset({"tight"})]
        fresh = analyze(ProposedAnalysis(), out.taskset)
        assert out.final_result.results == fresh.results

    def test_greedy_agrees_between_modes(self, ls_fixable_ts):
        a = greedy_ls_assignment(ls_fixable_ts, collect_results=True)
        b = greedy_ls_assignment(ls_fixable_ts, collect_results=False)
        assert a.schedulable == b.schedulable
        assert a.ls_names == b.ls_names
        assert a.rounds == b.rounds


class TestAblationPolicies:
    def test_all_nls(self, easy_ts):
        out = all_nls_assignment(easy_ts)
        assert out.schedulable
        assert out.ls_names == frozenset()

    def test_all_nls_fails_where_greedy_succeeds(self, ls_fixable_ts):
        assert not all_nls_assignment(ls_fixable_ts).schedulable
        assert greedy_ls_assignment(ls_fixable_ts).schedulable

    def test_all_ls(self, easy_ts):
        out = all_ls_assignment(easy_ts)
        assert out.ls_names == {"a", "b"}

    def test_tightest_deadline_marks_fraction(self, ls_fixable_ts):
        out = tightest_deadline_assignment(ls_fixable_ts, fraction=1 / 3)
        assert out.ls_names == frozenset({"tight"})

    def test_tightest_rejects_bad_fraction(self, easy_ts):
        with pytest.raises(AnalysisError):
            tightest_deadline_assignment(easy_ts, fraction=1.5)

    @pytest.mark.parametrize(
        "policy", [all_nls_assignment, all_ls_assignment,
                   tightest_deadline_assignment],
    )
    def test_static_policies_with_results_analyse_once(
        self, policy, ls_fixable_ts, monkeypatch
    ):
        verdict_only = policy(ls_fixable_ts, collect_results=False)
        rounds = []
        first_unschedulable = ProposedAnalysis.first_unschedulable

        def recording(self, taskset):
            rounds.append(taskset)
            return first_unschedulable(self, taskset)

        monkeypatch.setattr(
            ProposedAnalysis, "first_unschedulable", recording
        )
        out = policy(ls_fixable_ts)
        assert not rounds
        assert out.schedulable == verdict_only.schedulable
        assert out.schedulable == out.final_result.schedulable
        assert out.rounds == 1
        assert out.history == (out.ls_names,)

    def test_registry_contains_all_policies(self):
        assert set(LS_POLICIES) == {
            "greedy",
            "all_nls",
            "all_ls",
            "tightest_deadlines",
        }

    def test_policies_accept_custom_analysis(self, easy_ts):
        analysis = ProposedAnalysis(method="closed_form")
        for policy in LS_POLICIES.values():
            out = policy(easy_ts, analysis)
            assert out.taskset is not None


def test_a_wcrt_does_not_depend_on_an_earlier_verdict_in_its_scope():
    # A verdict memoises the solves it makes; a full analysis in the
    # same memo must read the value it would compute alone. On this
    # set, solves at HiGHS's default 1e-4 gap read task 4 at 46.21854
    # fresh and at 46.21678 after its verdict.
    config = GenerationConfig(n=6, utilization=0.5, gamma=0.3)
    taskset = list(generate_tasksets(config, count=3, seed=2021))[0]
    task = taskset[4]
    analysis = ProposedAnalysis(cache=AnalysisCache())
    analysis.verdict(taskset, task)
    after = analysis.response_time(taskset, task)
    fresh = ProposedAnalysis(cache=AnalysisCache()).response_time(
        taskset, task
    )
    assert after.wcrt == fresh.wcrt
