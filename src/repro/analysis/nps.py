"""Classical non-preemptive fixed-priority analysis (the NPS baseline).

Under NPS the DMA is not used: each job executes its three phases
back-to-back on the CPU (cost ``l + C + u``) and runs to completion
once started. The analysis is the standard busy-window formulation for
non-preemptive fixed priorities [16]: lower-priority blocking of at
most one job, level-i busy window, and a per-job start-time recurrence
(the job loop is required because non-preemptive self-pushing makes the
first job not necessarily the worst one).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.analysis.interface import AnalysisOptions, TaskResult, TaskSetResult
from repro.errors import AnalysisError
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time

#: Iteration cap for the inner fixpoints; generous because each
#: iteration strictly increases the tentative value by at least one
#: task cost.
_FIXPOINT_CAP = 100_000


def _fixpoint(update, start: Time, limit: Time, eps: float = 1e-9) -> Time:
    """Iterate ``x = update(x)`` from ``start`` until stable or > limit."""
    x = start
    for _ in range(_FIXPOINT_CAP):
        nxt = update(x)
        if nxt <= x + eps:
            return x if nxt <= x else nxt
        x = nxt
        if x > limit:
            return math.inf
    return math.inf


def carry_fixpoint(
    task: Task,
    hp: Sequence[Task],
    cost: Callable[[Task], Time],
    blocking: Time,
    options: AnalysisOptions,
) -> tuple[Time, int, bool]:
    """The release-anchored carry recurrence, ``(wcrt, iterations, converged)``.

    ``R = B + sum_hp (eta_j(R - c_i) + 1) * c_j + c_i`` with every
    job's occupancy ``c = cost(job)``, iterated from ``c_i + B`` until
    it converges, or passes the deadline with ``stop_at_deadline``.
    Running out of ``max_iterations`` first reports an infinite WCRT:
    the last tentative response lies below the fixpoint.
    """
    own = cost(task)
    response = own + blocking
    for iteration in range(1, options.max_iterations + 1):
        new_response = (
            blocking
            + sum((t.eta(response - own) + 1) * cost(t) for t in hp)
            + own
        )
        if new_response <= response + options.convergence_eps:
            return response, iteration, True
        response = new_response
        if options.stop_at_deadline and response > task.deadline:
            return response, iteration, False
    return math.inf, options.max_iterations, False


class NpsAnalysis:
    """Worst-case response-time analysis for plain non-preemptive FP.

    Two variants are provided:

    * ``"exact"`` — the classical busy-window analysis with a per-job
      start-time recurrence (George-style): the tightest standard NPS
      test.
    * ``"carry"`` — the arrival-curve convention of the paper's own
      framework: every higher-priority task contributes
      ``eta_j(t) + 1`` jobs to the delay window that starts at the
      analysed job's *release* (one carry-in instance each, exactly as
      Theorem 1 charges the interval protocols). Strictly more
      pessimistic than ``"exact"``, hence still a sound sufficient
      test.

    The experiment harness uses ``"carry"`` so the three compared
    analyses charge carry-in interference identically (the paper's
    NPS reference [16] is not specific enough to settle the convention;
    see EXPERIMENTS.md). ``"exact"`` is the default for direct API use
    and is exercised as an ablation benchmark.
    """

    protocol = "nps"

    def __init__(
        self,
        options: AnalysisOptions | None = None,
        variant: str = "exact",
    ) -> None:
        if variant not in ("exact", "carry"):
            raise AnalysisError(f"unknown NPS variant {variant!r}")
        self.options = options or AnalysisOptions()
        self.variant = variant

    # ------------------------------------------------------------------
    def blocking(self, taskset: TaskSet, task: Task) -> Time:
        """Maximum lower-priority blocking: one whole lp job."""
        return max((t.total_cost for t in taskset.lp(task)), default=0.0)

    def busy_window(self, taskset: TaskSet, task: Task, limit: Time) -> Time:
        """Length of the level-i busy window (``inf`` when divergent)."""
        hep = [task, *taskset.hp(task)]
        blocking = self.blocking(taskset, task)

        def update(x: Time) -> Time:
            return blocking + sum(
                t.arrivals.eta_closed(x) * t.total_cost for t in hep
            )

        return _fixpoint(update, task.total_cost + blocking, limit)

    def _response_time_carry(self, taskset: TaskSet, task: Task) -> TaskResult:
        """The ``"carry"`` variant: release-anchored window, +1 carry."""
        blocking = self.blocking(taskset, task)
        wcrt, iterations, converged = carry_fixpoint(
            task, taskset.hp(task), lambda t: t.total_cost, blocking,
            self.options,
        )
        return TaskResult(
            task=task,
            wcrt=wcrt,
            iterations=iterations,
            converged=converged,
            details={"variant": "carry", "blocking": blocking},
        )

    def response_time(self, taskset: TaskSet, task: Task) -> TaskResult:
        """WCRT bound of ``task`` within ``taskset`` under NPS."""
        taskset.require_member(task)
        if self.variant == "carry":
            return self._response_time_carry(taskset, task)
        hp = taskset.hp(task)
        blocking = self.blocking(taskset, task)

        # Cap busy windows at a horizon past which we call it divergent:
        # enough for every job of every task to appear many times over.
        horizon = 1000.0 * max(t.deadline for t in taskset)
        window = self.busy_window(taskset, task, horizon)
        if math.isinf(window):
            return TaskResult(
                task=task,
                wcrt=math.inf,
                iterations=0,
                converged=False,
                details={"reason": "level-i busy window diverges"},
            )

        num_jobs = task.arrivals.eta_closed(window)
        wcrt: Time = 0.0
        jobs_checked = 0
        for q in range(num_jobs):
            # Start-time recurrence for job q: blocking, q prior jobs of
            # tau_i, and all higher-priority jobs released in [0, s].
            def update(s: Time, q: int = q) -> Time:
                return (
                    blocking
                    + q * task.total_cost
                    + sum(t.arrivals.eta_closed(s) * t.total_cost for t in hp)
                )

            start = _fixpoint(update, blocking + q * task.total_cost, horizon)
            if math.isinf(start):
                return TaskResult(
                    task=task,
                    wcrt=math.inf,
                    converged=False,
                    details={"reason": f"start-time recurrence for job {q} diverges"},
                )
            finish = start + task.total_cost
            release = task.arrivals.earliest_release(q)
            wcrt = max(wcrt, finish - release)
            jobs_checked += 1
            if self.options.stop_at_deadline and wcrt > task.deadline:
                break

        return TaskResult(
            task=task,
            wcrt=wcrt,
            iterations=jobs_checked,
            converged=True,
            details={"busy_window": window, "jobs_in_window": num_jobs},
        )

    def analyze(self, taskset: TaskSet) -> TaskSetResult:
        """Analyse every task; stops early per options on a miss."""
        results = []
        for task in taskset:
            results.append(self.response_time(taskset, task))
        return TaskSetResult(
            taskset=taskset, results=tuple(results), protocol=self.protocol
        )

    def is_schedulable(self, taskset: TaskSet) -> bool:
        """Convenience wrapper: all deadlines proven."""
        # Quick necessary condition: serialized utilisation must fit.
        if taskset.total_utilization > 1.0 + 1e-12:
            return False
        for task in taskset:
            if not self.response_time(taskset, task).schedulable:
                return False
        return True


def nps_response_time(taskset: TaskSet, task: Task) -> Time:
    """Functional shorthand for a single task's NPS WCRT bound."""
    if task not in taskset:
        raise AnalysisError(f"{task.name!r} is not in the task set")
    return NpsAnalysis().response_time(taskset, task).wcrt
