"""NPS analysis under per-core memory bandwidth regulation.

The ``regulated`` protocol is non-preemptive fixed priorities with
inline memory phases (as NPS), except the core's memory traffic runs
under a MemGuard-style regulator (Agrawal et al., "Analysis of Dynamic
Memory Bandwidth Regulation in Multi-core Real-Time Systems"): a
budget of ``Q`` transfer-time units per replenishment period ``P``,
replenished to ``Q`` at every period boundary without accumulation. A
memory phase that exhausts the budget stalls until the next
replenishment; execution phases consume no budget.

The worst-case regulated duration of a memory phase of demand ``m`` is

    ``reg(m) = m + ceil(m / Q) * (P - Q)``

— the phase can begin with an empty budget at most ``P - Q`` before a
replenishment (consuming ``Q`` budget itself takes ``Q`` time, so the
earliest exhaustion inside a period is ``Q`` after its start), and
each of the ``ceil(m / Q)`` budget chunks it needs can be followed by
one full ``P - Q`` stall. ``Q == P`` gives ``reg(m) == m``: the
analysis (and the simulator) degenerate exactly to ``nps_carry``.

The WCRT bound is then the release-anchored carry fixpoint of
:meth:`repro.analysis.nps.NpsAnalysis` with every task's cost inflated
to ``reg(l) + C + reg(u)`` — each phase's regulated duration is
bounded independently of the budget state it starts in, so inflation
composes across phases and jobs and the busy-window argument carries
over unchanged. The :class:`repro.sim.regulated_sim.RegulatedSimulator`
cross-validation asserts observed <= bound on the experiment matrix.
"""

from __future__ import annotations

import math

from repro.analysis.interface import (
    AnalysisOptions,
    RegulationConfig,
    TaskResult,
    TaskSetResult,
)
from repro.analysis.nps import carry_fixpoint
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time


def regulated_duration(demand: Time, regulation: RegulationConfig | None) -> Time:
    """Worst-case wall-clock span of one memory phase under regulation.

    ``None`` (or a full budget ``Q == P``) means unregulated: the
    phase transfers at full rate and the span equals the demand.
    """
    if regulation is None or demand <= 0.0:
        return max(demand, 0.0)
    budget, period = regulation.budget, regulation.period
    chunks = math.ceil(demand / budget - 1e-12)
    return demand + chunks * (period - budget)


def regulated_cost(task: Task, regulation: RegulationConfig | None) -> Time:
    """A job's worst-case CPU occupancy with regulated memory phases."""
    return (
        regulated_duration(task.copy_in, regulation)
        + task.exec_time
        + regulated_duration(task.copy_out, regulation)
    )


class RegulatedAnalysis:
    """WCRT analysis for bandwidth-regulated non-preemptive FP.

    ``options.regulation`` carries the budget; ``None`` analyses the
    unregulated limit (identical to ``nps_carry``), which keeps the
    protocol runnable in zoo sweeps that set no budget.
    """

    protocol = "regulated"

    def __init__(self, options: AnalysisOptions | None = None) -> None:
        self.options = options or AnalysisOptions()
        self.regulation = self.options.regulation

    # ------------------------------------------------------------------
    def blocking(self, taskset: TaskSet, task: Task) -> Time:
        """Maximum lower-priority blocking: one whole regulated job."""
        return max(
            (regulated_cost(t, self.regulation) for t in taskset.lp(task)),
            default=0.0,
        )

    def response_time(self, taskset: TaskSet, task: Task) -> TaskResult:
        """Release-anchored carry fixpoint with regulated costs."""
        taskset.require_member(task)
        blocking = self.blocking(taskset, task)
        own_cost = regulated_cost(task, self.regulation)
        wcrt, iterations, converged = carry_fixpoint(
            task,
            taskset.hp(task),
            lambda t: regulated_cost(t, self.regulation),
            blocking,
            self.options,
        )
        return TaskResult(
            task=task,
            wcrt=wcrt,
            iterations=iterations,
            converged=converged,
            details={
                "blocking": blocking,
                "regulated_cost": own_cost,
                "regulation": repr(self.regulation),
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
        # Regulated utilisation must fit on the serialized core.
        util = sum(
            regulated_cost(t, self.regulation) / t.period for t in taskset
        )
        if util > 1.0 + 1e-12:
            return False
        return all(
            self.response_time(taskset, t).schedulable for t in taskset
        )
