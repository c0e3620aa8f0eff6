"""Lagrangian chain bound on the windowed delay MILP.

The delay MILP of :func:`~repro.analysis.proposed.formulation.
build_delay_milp` (modes NLS, LS case (a) and WASLY) is a chain of
scheduling intervals. Interval ``I_k`` lasts ``max(cpu, cin + cout)``
(Constraint 13 with binary ``alpha``): its CPU side is the execution
of its occupant, its copy-out the output of ``I_{k-1}``'s occupant and
its copy-in either the copy-in of ``I_{k+1}``'s occupant or one
cancelled copy-in. So ``I_k`` depends only on the occupants of
``I_{k-1}``, ``I_k`` and ``I_{k+1}`` and on its own cancelled copy-in.
Only two kinds of row couple the whole chain: the higher-priority
execution budgets (Constraint 7) and the cancellation budget.

:class:`DelayChain` relaxes exactly those rows, with multipliers
``lam, mu >= 0``, and maximises the rest exactly by a max-plus dynamic
program over the occupant pair of two adjacent intervals. Every other
row is kept: one occupant per interval (C5), a copy-in that is either
the next occupant's or a cancelled one (C6, C10), an urgent execution
licensed by a cancelled lower-priority copy-in (C8), the lower-priority
budgets and execution span (C3, C7, C14) and the fixed ends (C12). By
weak duality ``DP(lam, mu) + lam . b + mu * B`` upper-bounds the MILP
optimum for every ``lam, mu >= 0``, with no solver tolerance anywhere;
and a DP path that :meth:`DelayChain.repair` makes budget-feasible is a
schedule of the MILP, so its value lower-bounds the optimum.
:func:`decide` searches the multipliers until one side decides a
probe. docs/analysis.md, "Chain bound", has the argument;
``tests/test_chain_bound.py`` checks both sides against HiGHS.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple

import numpy as np

from repro.analysis.proposed.formulation import (
    AnalysisMode,
    _cancellers,
    cancellation_budget,
    interval_count,
    lp_exec_span,
)
from repro.analysis.proposed.intervals import interference_budget
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.types import Time

#: Subgradient iterations before :func:`decide` gives up.
MAX_ITERATIONS = 150
#: Iterations whose progress :func:`decide` extrapolates to give up.
PROGRESS_WINDOW = 10

_NONE = 0  # the empty occupant of every interval


class Occupant(NamedTuple):
    """One way to fill an interval's CPU: ``task`` executes, after its
    own urgent copy-in when ``urgent`` (an ``LE`` execution)."""

    task: Task
    urgent: bool


class Schedule(NamedTuple):
    """A chain path: the occupant of each interval ``I_0 .. I_{N-2}``
    (``None`` when empty), the cancelled copy-in of each interval
    ``I_0 .. I_{N-3}`` (``None`` when none) and the total length."""

    occupants: tuple[Occupant | None, ...]
    cancelled: tuple[Task | None, ...]
    value: float


class _Step(NamedTuple):
    """Interval ``I_k`` of the DP: its length for every occupant triple
    ``(I_{k-1}, I_k, I_{k+1})``, without and with a cancelled copy-in
    (``-inf`` where the triple is not a schedule), and the victim each
    cancelled copy-in takes, per next occupant."""

    prev: tuple[int, ...]
    cur: tuple[int, ...]
    nxt: tuple[int, ...]
    plain: np.ndarray
    cancel: np.ndarray | None
    victim: tuple[int, ...]


class DelayChain:
    """The delay MILP at one window as a chain over interval occupants.

    Built from the same inputs and helpers as the MILP, so it encodes
    exactly the model the analysis cache key digests.
    """

    def __init__(
        self,
        taskset: TaskSet,
        task: Task,
        window: Time,
        mode: AnalysisMode,
        hp_wcrt: Mapping[str, Time] | None = None,
    ) -> None:
        if mode is AnalysisMode.LS_CASE_B:
            raise ValueError("LS case (b) has no interval chain")
        self.task = task
        self.n = n = interval_count(taskset, task, window, mode, hp_wcrt)
        ls = mode.uses_ls_machinery
        others = [j for j in taskset if j.name != task.name]
        self.hp = [j for j in others if j.priority < task.priority]
        span = lp_exec_span(mode)

        # occupant ids: 0 = none, then E_j / LE_j of every other task
        self.occupants: list[Occupant | None] = [None]
        for j in others:
            self.occupants.append(Occupant(j, False))
            if ls and j.latency_sensitive:
                self.occupants.append(Occupant(j, True))
        self._hp_index = hp_index = {j.name: h for h, j in enumerate(self.hp)}
        #: per occupant id: multiplier index (-1: none or lower priority)
        self.owner = np.array(
            [-1 if o is None else hp_index.get(o.task.name, -1)
             for o in self.occupants]
        )
        cpu = [0.0] + [
            o.task.copy_in * o.urgent + o.task.exec_time
            for o in self.occupants[1:]
        ]
        out = [0.0] + [o.task.copy_out for o in self.occupants[1:]]
        # positions: I_0 .. I_{N-2} hold occupants; the analysed task
        # executes in I_{N-1}. Lower-priority tasks only within the span.
        positions = [
            tuple(
                s for s, o in enumerate(self.occupants)
                if o is None or o.task.name in hp_index or k < span
            )
            for k in range(n - 1)
        ]
        # cancelled copy-in victims of I_k (k <= N-3), as taskset
        # indices; a lower-priority victim only in I_0 (C3, C14)
        tasks = list(taskset)
        victims = [
            [
                v for v, victim in enumerate(tasks)
                if _cancellers(taskset, task, victim, mode)
                and (k == 0 or victim.priority <= task.priority)
            ]
            for k in range(n - 2)
        ]
        self.tasks = tasks
        self.has_cancellations = any(victims)
        self.budgets = np.array(
            [float(interference_budget(j, window, hp_wcrt)) for j in self.hp]
        )
        self.cancellation_budget = float(
            cancellation_budget(taskset, task, window, mode)
        )
        self._cpu, self._out = cpu, out
        #: per occupant id: the copy-in the interval before it runs
        self._next_in = [0.0] + [
            0.0 if o.urgent else o.task.copy_in for o in self.occupants[1:]
        ]
        #: per occupant id: executions its task may have (C7)
        self._limit = [0.0] + [
            self.budgets[hp_index[o.task.name]]
            if o.task.name in hp_index else 1.0
            for o in self.occupants[1:]
        ]
        self._positions, self._victims = positions, victims
        self._max_l = max(t.copy_in for t in taskset)
        self._max_u = max(t.copy_out for t in taskset)

        self.steps: list[_Step] = []
        pre, own, end = (-1,), (-2,), (-3,)
        for k in range(n):
            prev = pre if k == 0 else positions[k - 1]
            cur = own if k == n - 1 else positions[k]
            nxt = end if k == n - 1 else own if k == n - 2 else positions[k + 1]
            self.steps.append(
                self._step(prev, cur, nxt, victims[k] if k < n - 2 else [])
            )

    # ------------------------------------------------------------------
    def _cpu_of(self, s: int) -> float:
        return self.task.exec_time if s == -2 else self._cpu[s]

    def _out_of(self, s: int) -> float:
        return self._max_u if s == -1 else self._out[s]

    def _best_victim(self, victims: list[int], licensee: Occupant | None) -> int:
        """The longest copy-in a cancellation before ``licensee`` may
        take: any victim before an empty interval, a victim of lower
        priority than an urgent occupant (C8); -1 when there is none."""
        allowed = [
            v for v in victims
            if licensee is None or self.tasks[v].priority > licensee.task.priority
        ]
        return max(allowed, key=lambda v: self.tasks[v].copy_in, default=-1)

    def _step(
        self,
        prev: tuple[int, ...],
        cur: tuple[int, ...],
        nxt: tuple[int, ...],
        victims: list[int],
    ) -> _Step:
        task = self.task
        # copy-in of I_k without / with a cancellation, per next occupant
        plain_in, cancel_in, victim = [], [], []
        for c in nxt:
            occupant = self.occupants[c] if c >= 0 else None
            if c == -3:  # after tau_i's execution: any copy-in (C12)
                plain_in.append(self._max_l)
            elif c == -2:  # tau_i's own copy-in (C12)
                plain_in.append(task.copy_in)
            elif occupant is None or occupant.urgent:
                # an empty I_{k+1} leaves the DMA free; an urgent one
                # needs a cancelled copy-in (C8)
                plain_in.append(0.0 if occupant is None else -np.inf)
            else:
                plain_in.append(occupant.task.copy_in)
            v = -1
            if c >= 0 and (occupant is None or occupant.urgent):
                v = self._best_victim(victims, occupant)
            victim.append(v)
            cancel_in.append(self.tasks[v].copy_in if v >= 0 else -np.inf)
        cpu = np.array([self._cpu_of(b) for b in cur])[None, :, None]
        out = np.array([self._out_of(a) for a in prev])[:, None, None]
        same = np.array([
            [
                b >= 1 and c >= 1 and self.owner[b] < 0
                and self.occupants[b].task.name == self.occupants[c].task.name
                for c in nxt
            ]
            for b in cur
        ])[None, :, :]  # a lower-priority task executes once (C7)

        def length(copy_in: list[float]) -> np.ndarray:
            side = np.array(copy_in)[None, None, :]
            table = np.maximum(cpu, side + out)
            table[np.broadcast_to(np.isneginf(side), table.shape)] = -np.inf
            table[np.broadcast_to(same, table.shape)] = -np.inf
            return table

        cancel = length(cancel_in) if any(v >= 0 for v in victim) else None
        return _Step(prev, cur, nxt, length(plain_in), cancel, tuple(victim))

    # ------------------------------------------------------------------
    def solve(self, lam: np.ndarray, mu: float) -> tuple[float, Schedule]:
        """The Lagrangian bound at ``(lam, mu)`` and its maximising path.

        ``lam`` holds one multiplier per higher-priority task (in
        priority order) for its execution budget, ``mu`` the
        cancellation budget's. The bound upper-bounds the MILP optimum
        whenever every multiplier is non-negative.
        """
        penalty = np.append(lam, 0.0)[self.owner]  # owner -1 -> 0
        tables = []
        value = -penalty[list(self.steps[0].cur)][None, :]
        for step in self.steps:
            gain = step.plain
            if step.cancel is not None:
                gain = np.maximum(gain, step.cancel - mu)
            table = value[:, :, None] + gain
            tables.append(table)
            nxt = [c for c in step.nxt if c >= 0]
            value = table.max(axis=0)
            if nxt:
                value = value - penalty[nxt][None, :]
        bound = float(value[0, 0])
        # walk back from (tau_i, end) along the maximisers
        occupants: list[int] = []
        cancelled: list[int] = []
        b = c = 0
        for step, table in zip(reversed(self.steps), reversed(tables)):
            a = int(np.argmax(table[:, b, c]))
            cancels = step.cancel is not None and (
                step.cancel[a, b, c] - mu > step.plain[a, b, c]
            )
            if step.nxt[c] >= 0:
                cancelled.append(step.victim[c] if cancels else -1)
            if step.cur[b] >= 0:
                occupants.append(step.cur[b])
            b, c = a, b
        occupants.reverse()
        cancelled.reverse()
        bound += float(np.dot(lam, self.budgets)) + mu * self.cancellation_budget
        return bound, self._schedule(occupants, cancelled)

    def _schedule(self, occupants: list[int], cancelled: list[int]) -> Schedule:
        return Schedule(
            tuple(self.occupants[s] for s in occupants),
            tuple(self.tasks[v] if v >= 0 else None for v in cancelled),
            sum(self._length(occupants, cancelled, k) for k in range(self.n)),
        )

    def _length(self, occupants: list[int], cancelled: list[int], k: int) -> float:
        """Interval ``I_k``'s length ``max(cpu, cin + cout)`` on a path."""
        n = self.n
        if k == n - 1:
            cpu, cin = self.task.exec_time, self._max_l
        else:
            cpu = self._cpu[occupants[k]]
            if k == n - 2:
                cin = self.task.copy_in
            elif cancelled[k] >= 0:
                cin = self.tasks[cancelled[k]].copy_in
            else:
                cin = self._next_in[occupants[k + 1]]
        cout = self._max_u if k == 0 else self._out[occupants[k - 1]]
        return max(cpu, cin + cout)

    def counts(self, schedule: Schedule) -> tuple[np.ndarray, int]:
        """Executions per higher-priority task, and cancellations."""
        executions = np.zeros(len(self.hp))
        for occupant in schedule.occupants:
            h = -1 if occupant is None else self._hp_index.get(occupant.task.name, -1)
            if h >= 0:
                executions[h] += 1
        return executions, sum(v is not None for v in schedule.cancelled)

    def repair(self, schedule: Schedule) -> Schedule:
        """Turn a path into a schedule of the MILP by local moves.

        While a budget is exceeded, take the removal that costs the
        least length: empty an interval of an over-budget task, or drop
        a cancellation together with the urgent execution it licenses.
        Then, while an insertion lengthens the chain, take the best one:
        an execution of a task with budget to spare in an empty
        interval of its span (an urgent one licensed by a cancelled
        lower-priority copy-in before it, C8; a plain one taking over
        that copy-in slot, C6), or a cancelled copy-in before an empty
        interval. No move breaks a row, so the result is a schedule of
        the MILP.
        """
        ids = {o: s for s, o in enumerate(self.occupants)}
        occupants = [ids[o] for o in schedule.occupants]
        cancelled = [
            -1 if v is None else self.tasks.index(v) for v in schedule.cancelled
        ]
        used: dict[str, int] = {}
        for s in occupants:
            if s:
                name = self.occupants[s].task.name
                used[name] = used.get(name, 0) + 1
        cancels = sum(v >= 0 for v in cancelled)

        def gain(k: int, s: int, victim: int) -> float:
            """Length gained by ``I_k := s`` after cancelling ``victim``."""
            lo, hi = max(k - 1, 0), min(k + 2, self.n)
            before = sum(self._length(occupants, cancelled, j) for j in range(lo, hi))
            old = occupants[k], cancelled[k - 1] if k else -1
            occupants[k] = s
            if k:
                cancelled[k - 1] = victim
            after = sum(self._length(occupants, cancelled, j) for j in range(lo, hi))
            occupants[k] = old[0]
            if k:
                cancelled[k - 1] = old[1]
            return after - before

        def apply(k: int, s: int, victim: int) -> None:
            nonlocal cancels
            for t, step in ((occupants[k], -1), (s, 1)):
                if t:
                    name = self.occupants[t].task.name
                    used[name] = used.get(name, 0) + step
            occupants[k] = s
            if k:
                cancels += (victim >= 0) - (cancelled[k - 1] >= 0)
                cancelled[k - 1] = victim

        def spare(s: int) -> bool:
            return used.get(self.occupants[s].task.name, 0) < self._limit[s]

        while True:  # removals
            moves = [
                (gain(k, _NONE, cancelled[k - 1] if k else -1), k, _NONE,
                 cancelled[k - 1] if k else -1)
                for k, s in enumerate(occupants)
                if s and used[self.occupants[s].task.name] > self._limit[s]
            ]
            if cancels > self.cancellation_budget:
                for k in range(1, self.n - 1):
                    if cancelled[k - 1] >= 0:
                        s = occupants[k]
                        keep = s if s and not self.occupants[s].urgent else _NONE
                        moves.append((gain(k, keep, -1), k, keep, -1))
            if not moves:
                break
            _, k, s, victim = max(moves, key=lambda move: move[0])
            apply(k, s, victim)
        while True:  # insertions
            best = (0.0, -1, _NONE, -1)
            for k, current in enumerate(occupants):
                if current:
                    continue
                previous = cancelled[k - 1] if k else -1
                for s in self._positions[k]:
                    if not s or not spare(s):
                        continue
                    victim = -1
                    if self.occupants[s].urgent and k:
                        victim = self._best_victim(
                            self._victims[k - 1], self.occupants[s]
                        )
                        if victim < 0 or (
                            previous < 0 and cancels >= self.cancellation_budget
                        ):
                            continue
                    candidate = (gain(k, s, victim), k, s, victim)
                    if candidate[0] > best[0]:
                        best = candidate
                if k and previous < 0 and cancels < self.cancellation_budget:
                    victim = self._best_victim(self._victims[k - 1], None)
                    if victim >= 0:
                        candidate = (gain(k, _NONE, victim), k, _NONE, victim)
                        if candidate[0] > best[0]:
                            best = candidate
            if best[1] < 0:
                return self._schedule(occupants, cancelled)
            apply(*best[1:])


class ChainOutcome(NamedTuple):
    """How :func:`decide` ended: ``"proof"`` with an upper bound at or
    below the cutoff, ``"stop"`` with a schedule at or above the target,
    or ``"give_up"`` (the value is the best bound found)."""

    outcome: str
    value: float
    iterations: int


def decide(chain: DelayChain, cutoff: float, theta: float) -> ChainOutcome:
    """Projected subgradient search over the chain's multipliers.

    Each iteration solves the chain at the current multipliers: a bound
    at or below ``cutoff`` proves the probe, and a repaired path at or
    above ``theta`` disproves it. Otherwise the multipliers take a
    Polyak step aimed at ``cutoff``, first twice its length, then
    halved after every five iterations without a better bound. The search gives up after
    :data:`MAX_ITERATIONS`, on a zero subgradient (the path is then
    feasible and its bound exact), or once the best bound's progress
    over the last :data:`PROGRESS_WINDOW` iterations, carried forward
    to the cap, cannot reach ``cutoff``. Every rule is deterministic.
    """
    lam = np.zeros(len(chain.hp))
    mu = 0.0
    scale, stalled = 2.0, 0
    history: list[float] = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        bound, path = chain.solve(lam, mu)
        if bound <= cutoff:
            return ChainOutcome("proof", bound, iteration)
        repaired = chain.repair(path)
        if repaired.value >= theta:
            return ChainOutcome("stop", repaired.value, iteration)
        best = min(history[-1], bound) if history else bound
        stalled = 0 if not history or best < history[-1] else stalled + 1
        if stalled >= 5:
            scale, stalled = scale / 2, 0
        history.append(best)
        if len(history) > PROGRESS_WINDOW:
            rate = (history[-PROGRESS_WINDOW - 1] - best) / PROGRESS_WINDOW
            if best - rate * (MAX_ITERATIONS - iteration) > cutoff:
                break
        executions, cancellations = chain.counts(path)
        g_lam = chain.budgets - executions
        g_mu = chain.cancellation_budget - cancellations
        # project: a zero multiplier with slack stays at zero
        g_lam = np.where((lam <= 0) & (g_lam > 0), 0.0, g_lam)
        if mu <= 0 and g_mu > 0 or not chain.has_cancellations:
            g_mu = 0.0
        norm = float(np.dot(g_lam, g_lam)) + g_mu * g_mu
        if norm == 0.0:
            break
        step = scale * (bound - cutoff) / norm
        lam = np.maximum(lam - step * g_lam, 0.0)
        mu = max(mu - step * g_mu, 0.0)
    return ChainOutcome("give_up", history[-1], iteration)
