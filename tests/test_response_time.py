"""Unit tests for the iterative response-time driver (proposed protocol)."""

import math

import pytest

from repro.analysis.interface import AnalysisOptions
from repro.analysis.proposed.closed_form import closed_form_delay_bound
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.errors import ModelError
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.milp import BranchBoundBackend
from repro.model.taskset import TaskSet


@pytest.fixture
def ts():
    return TaskSet.from_parameters(
        [
            ("a", 1.0, 0.2, 0.2, 10.0, 9.0),
            ("b", 2.0, 0.3, 0.3, 20.0, 16.0),
            ("c", 3.0, 0.4, 0.4, 40.0, 36.0),
        ]
    )


class TestNlsIteration:
    def test_converges(self, ts):
        result = ProposedAnalysis().response_time(ts, ts.by_name("a"))
        assert result.converged
        assert result.wcrt > ts.by_name("a").total_cost

    def test_single_task_value(self, single_task_set):
        task = single_task_set[0]
        result = ProposedAnalysis().response_time(single_task_set, task)
        expected = (
            (task.copy_in + task.copy_out)
            + max(task.exec_time, task.copy_in)
            + task.copy_out
        )
        assert result.wcrt == pytest.approx(expected)

    def test_milp_at_most_closed_form(self, ts):
        options = AnalysisOptions(stop_at_deadline=False)
        for task in ts:
            milp = ProposedAnalysis(options).response_time(ts, task).wcrt
            closed = closed_form_delay_bound(
                ts, task, blocking_intervals=2, urgent_possible=True,
                deadline_cap=1e9,
            )
            assert milp <= closed + 1e-6

    def test_closed_form_method(self, ts):
        analysis = ProposedAnalysis(method="closed_form")
        result = analysis.response_time(ts, ts.by_name("a"))
        assert result.details["method"] == "closed_form"

    def test_closed_form_method_without_deadline_stop(self):
        # The closed-form fixpoint of t2 lies past its deadline: without
        # stop_at_deadline it is reported, and it bounds the MILP one.
        taskset = list(
            generate_tasksets(
                GenerationConfig(n=4, utilization=0.7, gamma=0.3),
                count=2,
                seed=1,
            )
        )[1]
        task = taskset.by_name("t2")
        options = AnalysisOptions(stop_at_deadline=False)
        closed = ProposedAnalysis(options, method="closed_form").response_time(
            taskset, task
        )
        milp = ProposedAnalysis(options).response_time(taskset, task)
        assert closed.converged
        assert task.deadline < milp.wcrt <= closed.wcrt < math.inf

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ProposedAnalysis(method="oracle")

    def test_lp_relaxation_dominates_milp(self, ts):
        options = AnalysisOptions(stop_at_deadline=False)
        for task in ts:
            milp = ProposedAnalysis(options).response_time(ts, task)
            lp = ProposedAnalysis(options, method="lp").response_time(
                ts, task
            )
            assert lp.wcrt >= milp.wcrt - 1e-6

    def test_lp_verdict_accepts_subset_of_milp(self, ts):
        for task in ts:
            lp_ok = ProposedAnalysis(method="lp").verdict(ts, task)
            if lp_ok:
                assert ProposedAnalysis().verdict(ts, task)

    def test_alternative_backend(self, ts):
        # The branch-and-bound backend must reproduce HiGHS' fixpoint.
        highs = ProposedAnalysis().response_time(ts, ts.by_name("a")).wcrt
        bb = ProposedAnalysis(
            backend_factory=lambda: BranchBoundBackend(max_nodes=50_000)
        ).response_time(ts, ts.by_name("a")).wcrt
        assert bb == pytest.approx(highs, abs=1e-5)


class TestLsIteration:
    def test_ls_result_reports_both_cases(self, ts):
        marked = ts.with_ls_marks(["a"])
        result = ProposedAnalysis().response_time(marked, marked.by_name("a"))
        assert "case_a_wcrt" in result.details
        assert "case_b_wcrt" in result.details
        assert result.wcrt == pytest.approx(
            max(
                result.details["case_a_wcrt"],
                result.details["case_b_wcrt"],
            )
        )

    def test_ls_blocking_no_worse_than_nls_for_victim(self, ts):
        # Marking 'a' LS can only reduce a's own bound (one blocker
        # instead of two) as long as case (b) does not dominate.
        options = AnalysisOptions(stop_at_deadline=False)
        nls = ProposedAnalysis(options).response_time(ts, ts.by_name("a"))
        marked = ts.with_ls_marks(["a"])
        ls = ProposedAnalysis(options).response_time(
            marked, marked.by_name("a")
        )
        assert ls.details["case_a_wcrt"] <= nls.wcrt + 1e-6


class TestVerdicts:
    def test_verdict_matches_full_analysis(self, ts):
        analysis = ProposedAnalysis()
        for marks in ((), ("a",), ("a", "b")):
            marked = ts.with_ls_marks(marks)
            for task in marked:
                full = analysis.response_time(marked, task).schedulable
                fast = analysis.verdict(marked, task)
                assert fast == full, (marks, task.name)

    def test_first_unschedulable_none_for_good_set(self, ts):
        assert ProposedAnalysis().first_unschedulable(ts) is None

    def test_first_unschedulable_finds_miss(self):
        ts = TaskSet.from_parameters(
            [
                ("tight", 1.0, 0.1, 0.1, 10.0, 1.5),
                ("heavy", 8.0, 0.8, 0.8, 40.0, 40.0),
            ]
        )
        miss = ProposedAnalysis().first_unschedulable(ts)
        assert miss is not None and miss.name == "tight"

    def test_is_schedulable_utilization_short_circuit(self):
        overload = TaskSet.from_parameters(
            [
                ("x", 9.0, 0.5, 0.5, 10.0, 10.0),
                ("y", 5.0, 0.5, 0.5, 10.0, 10.0),
            ]
        )
        assert not ProposedAnalysis().is_schedulable(overload)

    def test_requires_membership(self, ts, single_task_set):
        with pytest.raises(ModelError):
            ProposedAnalysis().response_time(ts, single_task_set[0])
