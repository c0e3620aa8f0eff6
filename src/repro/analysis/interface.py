"""Common result and option types shared by all analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time


@dataclass(frozen=True)
class RegulationConfig:
    """Per-core memory-bandwidth regulation (the ``regulated`` protocol).

    A MemGuard-style regulator grants each core a memory budget of
    ``budget`` time units of DMA-rate transfer per replenishment
    ``period``; a memory phase that exhausts the budget stalls until the
    next replenishment. Execution phases consume no budget. ``budget ==
    period`` degenerates to unregulated memory (the ``nps_carry``
    bound).

    Attributes:
        budget: Memory-transfer time granted per period (``Q``).
        period: Replenishment period (``P``); budgets do not accumulate
            across periods.
    """

    budget: float
    period: float

    def __post_init__(self) -> None:
        if self.period <= 0.0:
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 < self.budget <= self.period:
            raise ValueError(
                f"budget must be in (0, period], got {self.budget} "
                f"with period {self.period}"
            )


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs shared by the response-time analyses.

    Attributes:
        max_iterations: Cap on every response-time fixpoint's
            iterations. Running out of them before the iteration
            converges or stops reports an infinite WCRT: the last
            tentative response lies below the fixpoint.
        stop_at_deadline: Abort the iteration as soon as the tentative
            response time exceeds the deadline. The task is then
            reported unschedulable with the last tentative bound; this
            is the mode used for schedulability experiments, where only
            the verdict matters.
        time_limit: Per-MILP wall-clock budget in seconds; when hit,
            the solver's dual bound is used, which keeps the reported
            delay a safe upper bound (at the price of pessimism). A
            solve that fails outright always degrades to a safe bound
            — the LP relaxation, then the closed form — whatever the
            options (see ``ProposedAnalysis._solve_model``).
        convergence_eps: Fixpoint convergence tolerance on the WCRT.
        preemption_thresholds: For the ``threshold`` protocol: explicit
            per-task preemption thresholds as a tuple of ``(task name,
            threshold)`` pairs (a tuple, not a dict, so the frozen
            options stay hashable and ``repr``-stable for cache keys).
            A job of threshold ``theta`` can only be preempted — at its
            phase boundaries — by ready tasks with priority strictly
            less than ``theta``. ``None`` (the default) uses each
            task's own priority as its threshold.
        regulation: For the ``regulated`` protocol: the per-core memory
            bandwidth budget (see :class:`RegulationConfig`). ``None``
            means unregulated memory phases.
    """

    max_iterations: int = 60
    stop_at_deadline: bool = True
    time_limit: float | None = None
    convergence_eps: float = 1e-6
    preemption_thresholds: tuple[tuple[str, int], ...] | None = None
    regulation: RegulationConfig | None = None


@dataclass(frozen=True)
class TaskResult:
    """Per-task analysis outcome.

    Attributes:
        task: The analysed task (with the LS flag used for analysis).
        wcrt: Worst-case response-time bound (``inf`` if divergent or
            out of iterations).
        iterations: Fixpoint iterations performed.
        converged: Whether the iteration reached a fixpoint (``False``
            when it stopped early at the deadline or at the cap).
        details: Analysis-specific diagnostics (e.g. interval counts,
            MILP sizes, solver runtimes).
    """

    task: Task
    wcrt: Time
    iterations: int = 0
    converged: bool = True
    details: Mapping[str, object] = field(default_factory=dict)

    @property
    def schedulable(self) -> bool:
        """Whether the bound proves the deadline (``wcrt <= D``)."""
        return self.wcrt <= self.task.deadline + 1e-9

    @property
    def slack(self) -> Time:
        """Deadline minus WCRT bound (negative when unschedulable)."""
        if math.isinf(self.wcrt):
            return -math.inf
        return self.task.deadline - self.wcrt


@dataclass(frozen=True)
class TaskSetResult:
    """Task-set level outcome: one :class:`TaskResult` per task."""

    taskset: TaskSet
    results: tuple[TaskResult, ...]
    protocol: str

    def __post_init__(self) -> None:
        names = {r.task.name for r in self.results}
        missing = {t.name for t in self.taskset} - names
        if missing:
            raise ValueError(f"missing results for tasks {sorted(missing)}")

    @property
    def schedulable(self) -> bool:
        """Whether every task meets its deadline."""
        return all(r.schedulable for r in self.results)

    def result_for(self, name: str) -> TaskResult:
        """The result of the task called ``name``."""
        for r in self.results:
            if r.task.name == name:
                return r
        raise KeyError(name)

    @property
    def first_miss(self) -> TaskResult | None:
        """The highest-priority task that misses its deadline, if any."""
        missing = [r for r in self.results if not r.schedulable]
        if not missing:
            return None
        return min(missing, key=lambda r: r.task.priority)

    def summary_rows(self) -> list[tuple[str, float, float, bool]]:
        """``(name, wcrt, deadline, schedulable)`` rows for reporting."""
        return [
            (r.task.name, r.wcrt, r.task.deadline, r.schedulable)
            for r in self.results
        ]
