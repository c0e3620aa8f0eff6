"""Analysis of the protocol by Wasly & Pellizzoni [3].

Protocol [3] double-buffers the local memory across scheduling
intervals exactly like the proposed protocol, but has no cancellation
or urgency rules: a task under analysis can therefore be blocked by up
to *two* lower-priority tasks regardless of latency sensitivity
(Sec. III-A, Fig. 1(a)).

The paper observes (Sec. VIII) that its MILP, specialised to the case
where no task is latency-sensitive, *improves* on the original analysis
of [3]; this module exposes precisely that specialisation
(:class:`WaslyAnalysis`) — which is conservative as a baseline, since a
stronger baseline can only shrink the reported advantage of the
proposed protocol — plus the coarser closed-form interval-counting
bound (``method="closed_form"``) in the spirit of [3]'s original
analysis.

LS marks on tasks are ignored: protocol [3] predates the distinction.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.proposed.formulation import AnalysisMode
from repro.analysis.proposed.response_time import ProposedAnalysis
from repro.model.task import Task
from repro.model.taskset import TaskSet


class WaslyAnalysis(ProposedAnalysis):
    """WCRT analysis for protocol [3] (no LS machinery, 2 blockers)."""

    protocol = "wasly"
    _nls_mode = AnalysisMode.WASLY
    _supports_ls = False

    def response_time(self, taskset: TaskSet, task: Task):
        # Protocol [3] has no LS notion: analyse every task with the
        # WASLY mode over a task set with LS marks cleared, so that no
        # urgent/cancellation structure can appear in the window.
        plain = taskset.with_ls_marks(())
        plain_task = plain.by_name(task.name)
        result = super().response_time(plain, plain_task)
        # Report against the caller's task object (with original marks).
        return dataclasses.replace(result, task=task)
