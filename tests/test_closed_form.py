"""Unit tests for the closed-form conservative bounds."""

import math
import random

import pytest

from repro.analysis.proposed.closed_form import (
    closed_form_delay_bound,
    ls_case_b_bound,
)
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.errors import AnalysisError
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.milp import HighsBackend, SolveStatus
from repro.model.taskset import TaskSet


@pytest.fixture
def ts():
    return TaskSet.from_parameters(
        [
            ("a", 1.0, 0.2, 0.2, 10.0, 8.0),
            ("b", 2.0, 0.3, 0.3, 20.0, 16.0),
            ("c", 3.0, 0.4, 0.4, 40.0, 32.0),
        ]
    )


class TestCaseBBound:
    def test_rejects_nls_task(self, ts):
        with pytest.raises(AnalysisError):
            ls_case_b_bound(ts, ts.by_name("a"))

    def test_hand_computed(self, ts):
        marked = ts.with_ls_marks(["a"])
        task = marked.by_name("a")
        # I_0: longest other execution is c (3.0, NLS) vs cancelled lp
        # copy-in (max lp l = 0.4) + pre copy-out (max u = 0.4).
        # I_1: l_a + C_a = 1.2 vs max other l (0.4) + max other u (0.4).
        expected = max(3.0, 0.4 + 0.4) + max(1.2, 0.8) + 0.2
        assert ls_case_b_bound(marked, task) == pytest.approx(expected)

    def test_urgent_ls_blocker_costs_more(self, ts):
        # If the blocking task is itself LS, its interval may include a
        # sequential copy-in.
        marked = ts.with_ls_marks(["a", "c"])
        task = marked.by_name("a")
        expected = max(3.0 + 0.4, 0.4 + 0.4) + max(1.2, 0.8) + 0.2
        assert ls_case_b_bound(marked, task) == pytest.approx(expected)

    def test_single_ls_task(self):
        solo = TaskSet.from_parameters(
            [("s", 3.0, 1.0, 0.5, 20.0, 18.0)]
        ).with_ls_marks(["s"])
        task = solo.by_name("s")
        # I_0: no others, no lp: only the pre-window copy-out (0.5).
        # I_1: l + C = 4.0.  Plus own copy-out 0.5.
        assert ls_case_b_bound(solo, task) == pytest.approx(0.5 + 4.0 + 0.5)

    def test_one_occupant_sets_both_intervals(self):
        # j1 has the longest execution, j2 the longest copy-out: maximising
        # them independently gives max(10, 5) + max(1, 5) = 15, but one
        # occupant sits in I_0, so the worst is j1 with D_1 = 1.
        ts = TaskSet.from_parameters(
            [
                ("i", 1.0, 0.0, 0.0, 100.0, 10.0),
                ("j1", 10.0, 0.0, 0.0, 100.0, 20.0),
                ("j2", 1.0, 0.0, 5.0, 100.0, 30.0),
            ]
        ).with_ls_marks(["i"])
        assert ls_case_b_bound(ts, ts.by_name("i")) == 11.0


def _independent_tasksets(count: int, seed: int):
    """Task sets whose ``l``, ``C`` and ``u`` are drawn independently,
    with random LS marks (at least one per set)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        rows = [
            (
                f"t{k}",
                rng.uniform(0.1, 10.0),
                rng.uniform(0.0, 5.0),
                rng.uniform(0.0, 5.0),
                100.0,
                rng.uniform(10.0, 100.0),
            )
            for k in range(n)
        ]
        ts = TaskSet.from_parameters(rows)
        marks = [t.name for t in ts if rng.random() < 0.5]
        yield ts.with_ls_marks(marks or [rng.choice(ts).name])


class TestCaseBAgainstMilp:
    def test_closed_form_is_the_case_b_optimum(self):
        checked = 0
        for ts in _independent_tasksets(80, seed=5):
            for task in ts.ls_tasks:
                built = build_delay_milp(ts, task, 0.0, AnalysisMode.LS_CASE_B)
                solution = built.model.solve(HighsBackend())
                assert solution.status is SolveStatus.OPTIMAL
                milp = solution.objective + task.copy_out
                closed = ls_case_b_bound(ts, task)
                # HiGHS may read up to its 1e-6 feasibility tolerance
                # above the optimum (plus the subtraction's rounding),
                # never below it.
                assert closed <= milp + 1e-12, (ts, task.name)
                assert milp - closed <= 1e-6 + 1e-12, (ts, task.name)
                checked += 1
        assert checked > 100


class TestDelayBound:
    def test_single_task(self, single_task_set):
        task = single_task_set[0]
        bound = closed_form_delay_bound(
            single_task_set, task, blocking_intervals=2, urgent_possible=True
        )
        dma = task.copy_in + task.copy_out
        expected = dma + max(task.exec_time, dma) + task.copy_out
        assert bound == pytest.approx(expected)

    def test_more_blockers_cost_more(self, ts):
        task = ts.by_name("a")
        one = closed_form_delay_bound(
            ts, task, blocking_intervals=1, urgent_possible=True,
            deadline_cap=1e9,
        )
        two = closed_form_delay_bound(
            ts, task, blocking_intervals=2, urgent_possible=True,
            deadline_cap=1e9,
        )
        assert two > one

    def test_blocking_capped_by_available_lp(self, ts):
        # 'c' has no lp tasks: asking for 2 blockers must add nothing.
        task = ts.by_name("c")
        none_ = closed_form_delay_bound(
            ts, task, blocking_intervals=0, urgent_possible=True,
            deadline_cap=1e9,
        )
        two = closed_form_delay_bound(
            ts, task, blocking_intervals=2, urgent_possible=True,
            deadline_cap=1e9,
        )
        assert two == pytest.approx(none_)

    def test_divergence_returns_inf(self):
        overload = TaskSet.from_parameters(
            [
                ("x", 9.0, 0.5, 0.5, 10.0, 10.0),
                ("y", 5.0, 0.5, 0.5, 10.0, 10.0),
            ]
        )
        bound = closed_form_delay_bound(
            overload, overload.by_name("y"), 2, True
        )
        assert math.isinf(bound)

    def test_uncapped_divergence_returns_inf(self):
        # Without a cap the response grows until it overflows; the bound
        # is then inf, not an OverflowError from the arrival curves.
        taskset = next(
            iter(
                generate_tasksets(
                    GenerationConfig(n=6, utilization=0.6, gamma=0.1), 1, seed=12
                )
            )
        )
        bound = closed_form_delay_bound(
            taskset, taskset.by_name("t1"), blocking_intervals=2,
            urgent_possible=True, deadline_cap=math.inf,
        )
        assert math.isinf(bound)

    def test_deadline_cap_stops_early(self, ts):
        task = ts.by_name("a")
        bound = closed_form_delay_bound(
            ts, task, blocking_intervals=2, urgent_possible=True,
            deadline_cap=0.1,
        )
        # Either a finite value below ~one iteration or inf; never loops.
        assert bound > 0.1 or math.isinf(bound)
