"""Monotonicity properties of the analyses.

Response-time analyses must react monotonically to workload changes:
more interference or tighter resources can only worsen bounds, and
removing work can only help. Violations would indicate formulation
bugs even when the absolute numbers look plausible.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.interface import AnalysisOptions
from repro.analysis.nps import NpsAnalysis
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.analysis.sensitivity import scale_execution, scaled_taskset
from repro.model.task import Task
from repro.model.taskset import TaskSet

_EXACT = AnalysisOptions(stop_at_deadline=False, max_iterations=40)


def _mk_taskset(params):
    tasks = []
    for i, (c, period, gamma) in enumerate(params):
        tasks.append(
            Task.sporadic(
                f"t{i}",
                exec_time=c,
                period=period,
                deadline=period,
                copy_in=gamma * c,
                copy_out=gamma * c,
                priority=i,
            )
        )
    return TaskSet(tasks)


@st.composite
def param_lists(draw):
    n = draw(st.integers(2, 4))
    return [
        (
            draw(st.sampled_from([0.5, 1.0, 2.0])),
            draw(st.sampled_from([10.0, 20.0, 40.0])) + i,
            draw(st.sampled_from([0.0, 0.1, 0.3])),
        )
        for i, _ in enumerate(range(n))
    ]


class TestWorkloadMonotonicity:
    @settings(max_examples=10, deadline=None)
    @given(param_lists())
    def test_removing_lowest_priority_task_never_hurts(self, params):
        ts = _mk_taskset(params)
        smaller = TaskSet(list(ts)[:-1]) if len(ts) > 1 else ts
        assume(len(smaller) < len(ts))
        analysis = ProposedAnalysis(_EXACT)
        for task in smaller:
            full = analysis.response_time(ts, ts.by_name(task.name))
            reduced = analysis.response_time(smaller, task)
            assume(full.converged and reduced.converged)
            assert reduced.wcrt <= full.wcrt + 1e-6

    @settings(max_examples=10, deadline=None)
    @given(param_lists(), st.sampled_from([1.1, 1.5, 2.0]))
    def test_scaling_execution_up_never_helps(self, params, factor):
        ts = _mk_taskset(params)
        heavier = scaled_taskset(ts, scale_execution, factor)
        analysis = NpsAnalysis(_EXACT)
        for task, heavy_task in zip(ts, heavier):
            base = analysis.response_time(ts, task)
            worse = analysis.response_time(heavier, heavy_task)
            if base.converged and worse.converged:
                assert worse.wcrt >= base.wcrt - 1e-6

    @settings(max_examples=8, deadline=None)
    @given(param_lists())
    def test_nps_verdict_monotone_in_deadline(self, params):
        ts = _mk_taskset(params)
        analysis = NpsAnalysis()
        for task in ts:
            tight = analysis.response_time(ts, task).schedulable
            if tight:
                # Doubling the deadline keeps the task schedulable.
                import dataclasses

                loose_task = dataclasses.replace(
                    task, deadline=task.deadline * 2
                )
                loose = ts.with_task_replaced(loose_task)
                assert analysis.response_time(
                    loose, loose_task
                ).schedulable


class TestWindowMonotonicity:
    def test_proposed_bound_monotone_in_window_probe(self):
        ts = _mk_taskset([(1.0, 10.0, 0.2), (2.0, 20.0, 0.2), (3.0, 40.0, 0.2)])
        analysis = ProposedAnalysis(_EXACT)
        task = ts[2]
        from repro.analysis.proposed.response_time import (
            _IncrementalSlot,
            _Query,
        )

        query = _Query(analysis, ts, task)
        values = [
            analysis._delay(query, w, _IncrementalSlot()).objective
            for w in (2.0, 5.0, 10.0, 20.0, 40.0)
        ]
        assert values == sorted(values)
