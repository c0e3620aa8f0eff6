"""Latency-sensitive marking policies (paper Sec. VI).

Marking a task LS shrinks its own blocking (one interval instead of
two, Property 4) but can increase the interference it causes on others
(cancelled copy-ins must be redone; urgent executions occupy the CPU
for ``l + C`` instead of ``C``). The paper therefore proposes a greedy
algorithm: start with every task NLS, analyse, mark the first
deadline-missing task LS, and repeat — declaring failure when an
already-LS task misses. The greedy search decides its rounds by fast
verdicts and analyses only its final marking in full.

Ablation policies (``all_nls``, ``all_ls``, ``tightest_deadlines``) are
provided to quantify how much the greedy search matters. Each tries one
marking: one full analysis, or one verdict when only the boolean is
wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.interface import TaskSetResult
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.errors import AnalysisError
from repro.model.taskset import TaskSet
from repro.obs import events as obs


@dataclass(frozen=True)
class LsAssignmentOutcome:
    """Result of an LS-marking search.

    Attributes:
        schedulable: Whether a marking proving all deadlines was found.
        taskset: The task set with the final LS marks applied.
        final_result: The full analysis of the final marking; ``None``
            when the search ran in verdict-only mode
            (``collect_results=False``), which the experiment harness
            uses because only the boolean matters there.
        rounds: Number of markings tried: one per verdict round of
            the greedy search, and 1 for a static policy.
        history: LS-name frozensets tried, in order.
    """

    schedulable: bool
    taskset: TaskSet
    final_result: TaskSetResult | None
    rounds: int
    history: tuple[frozenset[str], ...]

    @property
    def ls_names(self) -> frozenset[str]:
        """Names of the tasks marked LS in the final configuration."""
        return frozenset(t.name for t in self.taskset.ls_tasks)


def greedy_ls_assignment(
    taskset: TaskSet,
    analysis: ProposedAnalysis | None = None,
    collect_results: bool = True,
) -> LsAssignmentOutcome:
    """The greedy algorithm of Sec. VI.

    All tasks start NLS. Each round marks the highest-priority task
    missing its deadline LS (if it is already LS, the set is deemed
    unschedulable). Terminates after at most ``n + 1`` rounds since
    each round adds one LS mark.
    """
    return _search(
        taskset.with_ls_marks(()), analysis or ProposedAnalysis(),
        collect_results, greedy=True,
    )


def _search(
    taskset: TaskSet,
    analysis: ProposedAnalysis,
    collect_results: bool,
    greedy: bool,
) -> LsAssignmentOutcome:
    """Rounds of fast verdicts, then one full analysis of the final marking.

    A round reads only the first miss, which
    :meth:`ProposedAnalysis.first_unschedulable` finds without any
    task's exact WCRT; the greedy search marks it LS and goes on. With
    ``collect_results`` the final marking is then analysed in the
    rounds' memo, whose entries are exact (docs/analysis.md, "Fast
    verdicts"); a static marking skips the verdict round, since its
    one analysis answers ``schedulable`` too.
    """
    if not greedy and collect_results:
        result = analysis.analyze(taskset)
        return LsAssignmentOutcome(
            schedulable=result.schedulable,
            taskset=taskset,
            final_result=result,
            rounds=1,
            history=(frozenset(t.name for t in taskset.ls_tasks),),
        )
    history: list[frozenset[str]] = []
    while True:
        marks = frozenset(t.name for t in taskset.ls_tasks)
        history.append(marks)
        with obs.span("ls.round", round=len(history), marks=len(marks)):
            miss = analysis.first_unschedulable(taskset)
        if not greedy or miss is None or miss.latency_sensitive:
            break
        taskset = taskset.with_ls_marks(marks | {miss.name})
    return LsAssignmentOutcome(
        schedulable=miss is None,
        taskset=taskset,
        final_result=analysis.analyze(taskset) if collect_results else None,
        rounds=len(history),
        history=tuple(history),
    )


def all_nls_assignment(
    taskset: TaskSet,
    analysis: ProposedAnalysis | None = None,
    collect_results: bool = True,
) -> LsAssignmentOutcome:
    """Ablation: never mark anything LS (single round)."""
    return _search(
        taskset.with_ls_marks(()), analysis or ProposedAnalysis(),
        collect_results, greedy=False,
    )


def all_ls_assignment(
    taskset: TaskSet,
    analysis: ProposedAnalysis | None = None,
    collect_results: bool = True,
) -> LsAssignmentOutcome:
    """Ablation: mark every task LS (single round)."""
    return _search(
        taskset.with_ls_marks(t.name for t in taskset),
        analysis or ProposedAnalysis(), collect_results, greedy=False,
    )


def tightest_deadline_assignment(
    taskset: TaskSet,
    analysis: ProposedAnalysis | None = None,
    collect_results: bool = True,
    fraction: float = 0.5,
) -> LsAssignmentOutcome:
    """Ablation: statically mark the tasks with the least slack LS.

    Marks the ``fraction`` of tasks with the smallest ``D - (l+C+u)``
    (absolute laxity) as LS, then analyses once. A cheap stand-in for
    the greedy search that captures the "tight deadlines benefit from
    LS" intuition of the paper's Fig. 2(f) discussion.
    """
    if not 0.0 <= fraction <= 1.0:
        raise AnalysisError(f"fraction must be within [0, 1], got {fraction}")
    count = round(len(taskset) * fraction)
    by_laxity = sorted(taskset, key=lambda t: t.deadline - t.total_cost)
    return _search(
        taskset.with_ls_marks(t.name for t in by_laxity[:count]),
        analysis or ProposedAnalysis(), collect_results, greedy=False,
    )


#: Registry used by the experiment harness and the CLI.
LS_POLICIES = {
    "greedy": greedy_ls_assignment,
    "all_nls": all_nls_assignment,
    "all_ls": all_ls_assignment,
    "tightest_deadlines": tightest_deadline_assignment,
}
