"""Per-core task sets with the priority/LS queries used by the analyses.

A :class:`TaskSet` models the workload ``Gamma`` of one core (the
protocol and all analyses are per-core, Sec. II). It validates
uniqueness of names and priorities and exposes the ``hp``/``lp`` and
``Gamma_LS``/``Gamma_NLS`` partitions the paper's notation relies on.
Task sets are immutable: LS re-marking produces a new set, which keeps
the greedy algorithm of Sec. VI side-effect free.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

from repro.errors import ModelError
from repro.model.task import Task
from repro.types import Time


class TaskSet:
    """An immutable collection of tasks sharing one core."""

    __slots__ = ("_tasks", "_by_name")

    def __init__(self, tasks: Iterable[Task]) -> None:
        ordered = sorted(tasks, key=lambda t: t.priority)
        if not ordered:
            raise ModelError("a task set must contain at least one task")
        names = [t.name for t in ordered]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate task names in {names}")
        priorities = [t.priority for t in ordered]
        if len(set(priorities)) != len(priorities):
            raise ModelError(f"priorities must be unique, got {priorities}")
        self._tasks: tuple[Task, ...] = tuple(ordered)
        self._by_name = {t.name: t for t in ordered}

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def __contains__(self, task: object) -> bool:
        if isinstance(task, Task):
            return self._by_name.get(task.name) == task
        if isinstance(task, str):
            return task in self._by_name
        return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TaskSet) and other._tasks == self._tasks

    def __hash__(self) -> int:
        return hash(self._tasks)

    def __repr__(self) -> str:
        return f"TaskSet({list(self._tasks)!r})"

    def digest(self) -> str:
        """Short stable hex digest of the task parameters.

        Unlike :func:`hash`, the value is stable across processes, so
        failure ledgers and stored unit rows can name the exact task set a
        fault occurred on.
        """
        h = hashlib.sha256()
        for t in self._tasks:
            h.update(
                repr(
                    (
                        t.name,
                        t.exec_time,
                        t.copy_in,
                        t.copy_out,
                        t.deadline,
                        t.priority,
                        t.arrivals,
                        t.latency_sensitive,
                    )
                ).encode()
            )
        return h.hexdigest()[:16]

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> tuple[Task, ...]:
        """All tasks, ordered by decreasing priority (increasing value)."""
        return self._tasks

    def by_name(self, name: str) -> Task:
        """Return the task called ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ModelError(f"no task named {name!r} in the set") from None

    def require_member(self, task: Task) -> Task:
        """Validate that ``task`` belongs to this set and return it."""
        member = self._by_name.get(task.name)
        if member is None or member != task:
            raise ModelError(f"{task.name!r} is not a member of this task set")
        return member

    # ------------------------------------------------------------------
    # priority partitions (paper notation)
    # ------------------------------------------------------------------
    def hp(self, task: Task) -> tuple[Task, ...]:
        """Tasks with higher priority than ``task`` (``hp(tau_i)``)."""
        self.require_member(task)
        return tuple(t for t in self._tasks if t.priority < task.priority)

    def lp(self, task: Task) -> tuple[Task, ...]:
        """Tasks with lower priority than ``task`` (``lp(tau_i)``)."""
        self.require_member(task)
        return tuple(t for t in self._tasks if t.priority > task.priority)

    def hp_ls(self, task: Task) -> tuple[Task, ...]:
        """Higher-priority latency-sensitive tasks (``hp^LS``)."""
        return tuple(t for t in self.hp(task) if t.latency_sensitive)

    def lp_ls(self, task: Task) -> tuple[Task, ...]:
        """Lower-priority latency-sensitive tasks (``lp^LS``)."""
        return tuple(t for t in self.lp(task) if t.latency_sensitive)

    def hp_nls(self, task: Task) -> tuple[Task, ...]:
        """Higher-priority non-latency-sensitive tasks (``hp^NLS``)."""
        return tuple(t for t in self.hp(task) if not t.latency_sensitive)

    def lp_nls(self, task: Task) -> tuple[Task, ...]:
        """Lower-priority non-latency-sensitive tasks (``lp^NLS``)."""
        return tuple(t for t in self.lp(task) if not t.latency_sensitive)

    @property
    def ls_tasks(self) -> tuple[Task, ...]:
        """``Gamma_LS``: tasks marked latency-sensitive."""
        return tuple(t for t in self._tasks if t.latency_sensitive)

    @property
    def nls_tasks(self) -> tuple[Task, ...]:
        """``Gamma_NLS``: tasks not marked latency-sensitive."""
        return tuple(t for t in self._tasks if not t.latency_sensitive)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def utilization(self) -> float:
        """Total execution-phase utilisation ``sum C_i / T_i``."""
        return sum(t.utilization for t in self._tasks)

    @property
    def total_utilization(self) -> float:
        """Utilisation including memory phases ``sum (l+C+u)/T``."""
        return sum(t.total_utilization for t in self._tasks)

    def max_copy_in(self, exclude: Task | None = None) -> Time:
        """``max_j l_j``, optionally excluding one task."""
        values = [t.copy_in for t in self._tasks if t is not exclude]
        return max(values, default=0.0)

    def max_copy_out(self, exclude: Task | None = None) -> Time:
        """``max_j u_j``, optionally excluding one task."""
        values = [t.copy_out for t in self._tasks if t is not exclude]
        return max(values, default=0.0)

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_ls_marks(self, ls_names: Iterable[str]) -> "TaskSet":
        """Return a copy where exactly the named tasks are LS."""
        wanted = set(ls_names)
        unknown = wanted - set(self._by_name)
        if unknown:
            raise ModelError(f"unknown task names in LS marking: {sorted(unknown)}")
        return TaskSet(
            t.as_latency_sensitive(t.name in wanted) for t in self._tasks
        )

    def with_task_replaced(self, task: Task) -> "TaskSet":
        """Return a copy with the same-named task replaced by ``task``."""
        if task.name not in self._by_name:
            raise ModelError(f"no task named {task.name!r} to replace")
        return TaskSet(
            task if t.name == task.name else t for t in self._tasks
        )

    @staticmethod
    def from_parameters(
        rows: Sequence[tuple[str, Time, Time, Time, Time, Time]],
    ) -> "TaskSet":
        """Build a sporadic task set from ``(name, C, l, u, T, D)`` rows.

        Priorities are assigned deadline-monotonically (ties broken by
        row order), matching common practice for non-preemptive FP.
        """
        order = sorted(range(len(rows)), key=lambda i: (rows[i][5], i))
        prio_of = {idx: p for p, idx in enumerate(order)}
        tasks = []
        for i, (name, c, l, u, t, d) in enumerate(rows):
            tasks.append(
                Task.sporadic(
                    name,
                    exec_time=c,
                    copy_in=l,
                    copy_out=u,
                    period=t,
                    deadline=d,
                    priority=prio_of[i],
                )
            )
        return TaskSet(tasks)
