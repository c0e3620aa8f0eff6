"""Limited-preemption analysis with per-task preemption thresholds.

The ``threshold`` protocol runs the 3-phase task model with memory
inline (as NPS) but relaxes full non-preemption: each *phase* is a
non-preemptive chunk, and at a phase boundary the running job — which
holds its task's preemption threshold ``theta`` as its effective
priority from start to completion — yields only to ready tasks of
priority strictly higher than ``theta`` (numerically ``< theta``).
This is the scheduling model of Thilakasiri & Becker's limited
preemption of the 3-phase task model, transplanted onto this repo's
arrival-curve conventions.

With the default thresholds (``theta_i = pi_i``) every phase boundary
is preemptible by any higher-priority task, which shrinks
lower-priority blocking from a whole job (NPS) to a single phase. A
threshold above a task's priority (numerically lower) trades blocking
imposed on others for protection from interference after its start.

The WCRT bound is a two-stage fixpoint in the same release-anchored
carry convention as :meth:`repro.analysis.nps.NpsAnalysis`'s
``"carry"`` variant, so zoo comparisons against ``nps_carry`` charge
carry-in identically:

* *Start*: ``S = B_i + sum_hp (eta_j(S) + 1) * c_j`` where the
  blocking ``B_i`` of a lower-priority task ``j`` is its largest
  single phase when ``pi_i < theta_j`` (the job is evicted at its next
  boundary) and its whole cost otherwise (it runs to completion). At
  most one lower-priority job can block: none starts while ``tau_i``
  is pending, and a preempted one cannot resume past ``tau_i``.
* *Finish*: ``F = S + c_i + sum_{j: pi_j < theta_i}
  eta_j(F - S) * c_j`` — after its start ``tau_i`` is preempted (at
  boundaries) only by tasks outranking its threshold.

Both stages only ever over-count interference relative to the full
window charge (``eta`` is subadditive), so the bound is a sound
sufficient test; the :class:`repro.sim.threshold_sim.ThresholdSimulator`
cross-validation asserts observed <= bound on the experiment matrix.
"""

from __future__ import annotations

import math

from repro.analysis.interface import AnalysisOptions, TaskResult, TaskSetResult
from repro.errors import AnalysisError
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time


def resolve_thresholds(
    taskset: TaskSet,
    pairs: tuple[tuple[str, int], ...] | None,
) -> dict[str, int]:
    """Per-task preemption thresholds, validated against the task set.

    ``pairs`` is the ``AnalysisOptions.preemption_thresholds`` tuple;
    tasks it does not name default to their own priority (preemptible
    at every boundary by any higher-priority task). A threshold must
    outrank-or-equal its task's priority (``theta <= pi``): anything
    else would let a job be preempted by lower-priority work.
    """
    thresholds = {t.name: t.priority for t in taskset}
    for name, theta in pairs or ():
        task = taskset.by_name(name)  # raises on unknown names
        if theta > task.priority:
            raise AnalysisError(
                f"preemption threshold {theta} of {name!r} is below its "
                f"priority {task.priority}; thresholds may only raise "
                "effective priority (theta <= priority)"
            )
        thresholds[name] = theta
    return thresholds


def max_phase(task: Task) -> Time:
    """The largest single non-preemptive chunk of a 3-phase job."""
    return max(task.copy_in, task.exec_time, task.copy_out)


class ThresholdAnalysis:
    """WCRT analysis for preemption-threshold limited preemption."""

    protocol = "threshold"

    def __init__(self, options: AnalysisOptions | None = None) -> None:
        self.options = options or AnalysisOptions()

    # ------------------------------------------------------------------
    def blocking(
        self, taskset: TaskSet, task: Task, thresholds: dict[str, int]
    ) -> Time:
        """Worst lower-priority blocking (at most one blocker).

        A lower-priority job that ``task`` outranks past its threshold
        is evicted at its next phase boundary (one phase); one that
        ``task`` cannot preempt runs to completion (whole cost).
        """
        worst = 0.0
        for j in taskset.lp(task):
            if task.priority < thresholds[j.name]:
                worst = max(worst, max_phase(j))
            else:
                worst = max(worst, j.total_cost)
        return worst

    def response_time(self, taskset: TaskSet, task: Task) -> TaskResult:
        """Two-stage (start, finish) fixpoint bound for one task."""
        taskset.require_member(task)
        thresholds = resolve_thresholds(
            taskset, self.options.preemption_thresholds
        )
        hp = taskset.hp(task)
        blocking = self.blocking(taskset, task, thresholds)
        eps = self.options.convergence_eps
        theta = thresholds[task.name]

        # Stage 1: latest start of the copy-in phase.
        start = blocking + sum(t.total_cost for t in hp)
        converged = False
        iterations = 0
        for iterations in range(1, self.options.max_iterations + 1):
            new_start = blocking + sum(
                (t.eta(start) + 1) * t.total_cost for t in hp
            )
            if new_start <= start + eps:
                converged = True
                start = max(start, new_start)
                break
            start = new_start
            if (
                self.options.stop_at_deadline
                and start + task.total_cost > task.deadline
            ):
                break
        else:
            start = math.inf  # out of iterations: below the fixpoint
        if not converged:
            return TaskResult(
                task=task,
                wcrt=start + task.total_cost,
                iterations=iterations,
                converged=False,
                details={"blocking": blocking, "start": start},
            )

        # Stage 2: finish time under post-start interference from tasks
        # outranking this task's threshold.
        preemptors = [t for t in hp if t.priority < theta]
        finish = start + task.total_cost
        converged = False
        for extra in range(1, self.options.max_iterations + 1):
            iterations += 1
            new_finish = (
                start
                + task.total_cost
                + sum(t.eta(finish - start) * t.total_cost for t in preemptors)
            )
            if new_finish <= finish + eps:
                converged = True
                finish = max(finish, new_finish)
                break
            finish = new_finish
            if self.options.stop_at_deadline and finish > task.deadline:
                break
        else:
            finish = math.inf  # out of iterations: below the fixpoint
        return TaskResult(
            task=task,
            wcrt=finish,
            iterations=iterations,
            converged=converged,
            details={
                "blocking": blocking,
                "start": start,
                "threshold": theta,
            },
        )

    def analyze(self, taskset: TaskSet) -> TaskSetResult:
        """Analyse every task of the set."""
        results = tuple(self.response_time(taskset, t) for t in taskset)
        return TaskSetResult(
            taskset=taskset, results=results, protocol=self.protocol
        )

    def is_schedulable(self, taskset: TaskSet) -> bool:
        """Whether every task's bound proves its deadline."""
        if taskset.total_utilization > 1.0 + 1e-12:
            return False
        return all(
            self.response_time(taskset, t).schedulable for t in taskset
        )
