"""Closed-form delay bounds (no MILP solve).

These bounds over-approximate every scheduling interval by the longest
it could possibly be — ``max(CPU side, max copy-in + max copy-out)`` —
and count intervals exactly as Theorem 1 / Corollary 1 do. They are
cheap fixpoints, provably no tighter than the MILP (whose per-interval
lengths are tied to the specific occupant), and serve two purposes:

* the first screen of every verdict, one call per task set and mode
  (:func:`closed_form_delay_bounds_batch`), and the whole of
  ``method="closed_form"``;
* a property-test oracle (``simulation <= MILP <= closed form``).

LS case (b) needs no fixpoint: its two intervals share one discrete
choice, the occupant of ``I_0``, so :func:`ls_case_b_bound` is its
exact optimum, a maximum over at most ``n`` occupants, and the only
case-(b) value the analysis reads.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import AnalysisError
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time

_FIXPOINT_CAP = 100_000


def _interval_bound(taskset: TaskSet, occupant: Task, urgent_possible: bool) -> Time:
    """Longest an interval occupied by ``occupant`` can last.

    The CPU side is the execution (plus a sequential copy-in when the
    occupant may run urgent, R5); the DMA side is at most one copy-out
    plus one copy-in of arbitrary tasks.
    """
    cpu = occupant.exec_time
    if urgent_possible and occupant.latency_sensitive:
        cpu += occupant.copy_in
    dma = taskset.max_copy_in() + taskset.max_copy_out()
    return max(cpu, dma)


def ls_case_b_bound(taskset: TaskSet, task: Task) -> Time:
    """Exact WCRT of LS case (b) (task promoted in ``I_0``).

    ``I_0`` holds one occupant ``o`` (an execution, or none) in
    parallel with a cancelled lower-priority copy-in and a pre-window
    copy-out; ``I_1`` holds the CPU-side ``l_i + C_i`` in parallel with
    ``o``'s copy-out and one further copy-in; the response ends after
    the task's own copy-out. The two interval lengths

    * ``D_0 = max(cpu(o), L_victim + U_all)`` and
    * ``D_1 = max(l_i + C_i, L_next + u(o))``

    are coupled only through ``o``, so the case-(b) MILP's optimum is
    the largest ``D_0 + D_1`` over ``o``. An LS occupant runs urgent
    (``LE_j`` dominates ``E_j``: same copy-out, longer CPU side), so
    ``cpu(j) = l_j + C_j`` for LS ``j``, ``C_j`` otherwise, and
    ``cpu(none) = u(none) = 0``.
    """
    if not task.latency_sensitive:
        raise AnalysisError(f"{task.name} is not LS; case (b) does not apply")
    others = [j for j in taskset if j.name != task.name]
    max_l_victim = max((j.copy_in for j in taskset.lp(task)), default=0.0)
    max_u_all = max(t.copy_out for t in taskset)
    max_l_next = max((j.copy_in for j in others), default=0.0)
    own_cpu = task.copy_in + task.exec_time
    occupants = [(0.0, 0.0)] + [
        ((j.copy_in + j.exec_time) if j.latency_sensitive else j.exec_time,
         j.copy_out)
        for j in others
    ]
    return max(
        max(cpu, max_l_victim + max_u_all) + max(own_cpu, max_l_next + out)
        for cpu, out in occupants
    ) + task.copy_out


def closed_form_delay_bound(
    taskset: TaskSet,
    task: Task,
    blocking_intervals: int,
    urgent_possible: bool,
    deadline_cap: Time | None = None,
) -> Time:
    """Conservative WCRT fixpoint with per-interval over-approximation.

    Args:
        taskset: The per-core task set.
        task: Task under analysis.
        blocking_intervals: 2 for NLS / protocol [3], 1 for LS case (a).
        urgent_possible: Whether LS tasks may run with a sequential
            copy-in (True for the proposed protocol, False for [3]).
        deadline_cap: Abort (returning ``inf``) once the bound passes
            this value; defaults to the task's deadline. With
            ``math.inf`` the fixpoint itself is returned, or ``inf``
            when it diverges.

    Returns:
        A WCRT upper bound, or ``inf`` when the fixpoint passes the cap
        or the response overflows.
    """
    taskset.require_member(task)
    cap = task.deadline if deadline_cap is None else deadline_cap
    hp = taskset.hp(task)
    lp = taskset.lp(task)
    dma_side = taskset.max_copy_in() + taskset.max_copy_out()

    lp_bounds = sorted(
        (_interval_bound(taskset, j, urgent_possible) for j in lp), reverse=True
    )
    blocking = sum(lp_bounds[: min(blocking_intervals, len(lp_bounds))])
    # One potentially execution-free interval (I_0 can be pure DMA work
    # when nothing was loaded at the release instant).
    slack_interval = dma_side
    own = max(task.exec_time, dma_side) + task.copy_out

    def delay(window: Time) -> Time:
        interference = sum(
            (j.eta(window) + 1) * _interval_bound(taskset, j, urgent_possible)
            for j in hp
        )
        return slack_interval + blocking + interference

    window = task.copy_in
    for _ in range(_FIXPOINT_CAP):
        response = delay(window) + own
        new_window = response - task.exec_time - task.copy_out
        if new_window <= window + 1e-9:
            return response
        window = new_window
        if response > cap or not math.isfinite(response):
            return math.inf
    return math.inf


def closed_form_delay_bounds_batch(
    taskset: TaskSet,
    tasks: Sequence[Task],
    blocking_intervals: int,
    urgent_possible: bool,
) -> list[Time]:
    """:func:`closed_form_delay_bound` of each task, capped at its deadline.

    The screen of a whole task set (one call per analysis mode). A
    numpy replica of the fixpoint measured slower than this loop on
    generated fig2 sets, so the scalar bound is the only one.
    """
    return [
        closed_form_delay_bound(taskset, task, blocking_intervals, urgent_possible)
        for task in tasks
    ]
