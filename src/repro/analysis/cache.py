"""Content-addressed memoisation for the MILP analysis hot path.

Reproducing a Fig. 2 sweep means thousands of response-time fixpoints,
and the delay MILP of one fixpoint step depends on its window ``t``
*only through integer quantities*: the interference budgets
``eta_j(t) + 1``, the interval count ``N_i(t)``, and the cancellation
budget — all staircase functions of ``t``. Two fixpoint iterations
whose windows fall on the same staircase plateau therefore build the
*identical* MILP, and so does the final "confirming" solve of every
converged fixpoint. This module gives those repeats a name: a
content-addressed cache keyed by a canonical digest of everything the
MILP optimum depends on —

* the analysed task's phase durations ``(l, C, u)``;
* every other task's ``(l, C, u)``, LS flag, and hp/lp side, listed in
  priority order (names are deliberately excluded: the cache is
  content-addressed, two isomorphic task sets share entries);
* the per-task interference budgets and the cancellation budget the
  window induces (the *only* way ``t`` enters the formulation);
* the interval count ``N_i(t)``;
* the higher-priority WCRTs when the carry refinement is active;
* the analysis mode and the solver-relevant options (method,
  backend, time limit, and the protocol knobs).

Because the key captures the MILP's full semantic content, a hit
returns the exact float a fresh build-and-solve would produce — cached
and uncached runs are bit-identical, which the experiment tests assert.

Scoping
-------
:func:`cache_scope` installs a cache for a dynamic extent; every
analysis constructed inside the scope (e.g. by
:func:`repro.analysis.schedulability.is_schedulable`) shares it, so a
greedy LS search's repeated whole-set analyses reuse each other's
solves. The experiment runner opens one scope per (point, task set)
work unit — the same scoping in the sequential and the parallel engine,
which keeps the surfaced hit/miss counters deterministic and identical
between the two.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.obs import events as obs


#: Counter names every cache exposes (missing ones read as 0).
#: ``hits`` and ``misses`` count lookups of the memo.
#: ``milp_warm_starts`` counts fixpoint iterations that retargeted the
#: previous iteration's compiled model in place instead of rebuilding it.
#: ``unit_store.hits`` counts whole or partial *work units* a sweep
#: answered from their stored rows without analysing the stored
#: protocols; ``unit_store.corrupt`` counts stored rows that failed
#: their sha256 check, were dropped, and left their unit to be
#: evaluated afresh (see :meth:`repro.experiments.units.UnitScheduler.
#: serve_stored`).
#: ``milp_target_stops`` counts the integer solves (already counted in
#: ``milp_solves``) whose result lies beyond a verdict's objective
#: target — nearly always because HiGHS stopped early at it. An exact
#: optimum beyond the target counts too, so the counter does not
#: depend on which solver attempt answered.
#: ``milp_cutoff_proofs`` counts the integer solves (also in
#: ``milp_solves``) that proved no schedule exceeds a probe's cutoff
#: (:attr:`repro.milp.SolveStatus.BELOW_CUTOFF`).
#: ``chain_proofs`` and ``chain_stops`` count the probes the Lagrangian
#: chain bound decided before any solve: proved within the cutoff, or
#: disproved by a schedule beyond the target.
COUNTER_NAMES = (
    "hits",
    "misses",
    "unit_store.corrupt",
    "milp_solves",
    "milp_target_stops",
    "milp_cutoff_proofs",
    "chain_proofs",
    "chain_stops",
    "lp_solves",
    "milp_warm_starts",
    "closed_form_screens",
    "screened_out",
    "unit_store.hits",
)

def _entry_rank(value: object) -> int:
    """Soundness rank of a cache entry: bounds below exact verdicts.

    ``("ub", bound)`` cutoff-proof upper bounds rank lowest,
    ``("lb", bound)`` target-stop lower bounds next, and ``("milp",
    ...)`` tuples and bare solved objectives (exact) highest.
    """
    if isinstance(value, tuple) and value:
        if value[0] == "ub":
            return 1
        if value[0] == "lb":
            return 2
    return 3


def _supersedes(value: object, existing: object) -> bool:
    """Whether ``put(value)`` may replace ``existing``.

    A lower rank never replaces a higher one, so a screening bound can
    never shadow an exact optimum. Of two lower bounds for one digest
    the larger is kept, so the surviving entry does not depend on write
    order.
    """
    rank, old_rank = _entry_rank(value), _entry_rank(existing)
    if rank == old_rank == 2:
        assert isinstance(value, tuple) and isinstance(existing, tuple)
        return float(value[1]) > float(existing[1])
    return rank >= old_rank


class AnalysisCache:
    """Bounded content-addressed memo for per-task analysis results.

    An in-memory LRU dict, one per scope. Nothing outlives the scope:
    the cross-run store (:mod:`repro.analysis.store`) holds finished
    work units, never individual solves.

    Args:
        capacity: Maximum number of entries kept (least recently used
            entries are evicted first). The default comfortably holds
            every distinct MILP of a full Fig. 2 point.
        enabled: With ``False`` the cache never stores or returns
            entries but still counts solves — used by tests and
            benchmarks to measure the uncached (seed) behaviour with
            identical instrumentation.
    """

    def __init__(self, capacity: int = 50_000, enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------
    def get(self, key: str) -> object | None:
        """Look up a digest, counting the hit or miss."""
        if not self.enabled:
            self.bump("misses")
            return None
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.bump("hits")
            return entry
        self.bump("misses")
        return None

    def put(self, key: str, value: object) -> None:
        """Store a value under a digest (evicting LRU entries)."""
        if not self.enabled:
            return
        existing = self._entries.get(key)
        if existing is not None and not _supersedes(value, existing):
            # A bound never overwrites an exact verdict, nor a lower
            # bound a larger one (see _supersedes).
            return
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self._counters.clear()

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def bump(self, name: str, amount: int = 1) -> None:
        """Increment a named counter (solves, screens, hits...).

        Mirrors every increment as a ``cache.<name>`` trace event, so a
        run's trace reconciles with its surfaced ``analysis_stats`` by
        construction: both are sums over the same ``bump`` calls.
        """
        self._counters[name] = self._counters.get(name, 0) + amount
        obs.emit(f"cache.{name}", amount=amount)

    @property
    def counters(self) -> dict[str, int]:
        """A copy of the nonzero counters."""
        return dict(self._counters)

    def stats(self) -> dict[str, int]:
        """All standard counters, including zero-valued ones."""
        return {name: self._counters.get(name, 0) for name in COUNTER_NAMES}

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when none happened)."""
        hits = self._counters.get("hits", 0)
        lookups = hits + self._counters.get("misses", 0)
        return hits / lookups if lookups else 0.0


# ----------------------------------------------------------------------
# scoping
# ----------------------------------------------------------------------
_SCOPES: list[AnalysisCache] = []


def active_cache() -> AnalysisCache | None:
    """The innermost scoped cache, or ``None`` outside any scope."""
    return _SCOPES[-1] if _SCOPES else None


@contextmanager
def cache_scope(cache: AnalysisCache | None = None) -> Iterator[AnalysisCache]:
    """Install ``cache`` (or a fresh one) for the dynamic extent.

    Every analysis object constructed inside the scope without an
    explicit cache shares the scoped one, so independent entry points
    (``is_schedulable`` per protocol, greedy rounds, ...) pool their
    memoised solves and report into one set of counters.
    """
    scoped = cache if cache is not None else AnalysisCache()
    _SCOPES.append(scoped)
    try:
        yield scoped
    finally:
        _SCOPES.pop()


# ----------------------------------------------------------------------
# key construction
# ----------------------------------------------------------------------
def _task_signature(task: Task) -> tuple:
    """The parameters of one task that enter a delay MILP.

    Deadlines and names are deliberately absent: neither appears in the
    formulation (deadlines only gate verdicts, names only label
    variables), and leaving them out lets isomorphic inputs share
    entries. Arrival curves enter solely through the integer budgets,
    which the caller supplies separately.
    """
    return (task.copy_in, task.exec_time, task.copy_out, task.latency_sensitive)


def digest(parts: tuple) -> str:
    """Stable content digest of a canonical key tuple.

    ``repr`` of floats round-trips exactly, so two keys collide only
    when every semantic input is identical.
    """
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def delay_milp_key(
    taskset: TaskSet,
    task: Task,
    mode: str,
    num_intervals: int,
    budgets: tuple[int, ...],
    cancellation_budget: int,
    hp_wcrt: Mapping[str, float] | None,
    solver_signature: tuple,
) -> str:
    """Digest of one windowed delay MILP's full semantic content.

    ``budgets`` lists, in priority order over the *other* tasks, the
    execution budget each receives (``eta_j(t)+1`` refined or not for
    higher-priority tasks, 1 for lower-priority blockers); together
    with ``num_intervals`` and ``cancellation_budget`` they carry every
    window dependence of the formulation.
    """
    others = tuple(
        (
            _task_signature(j),
            j.priority < task.priority,
            (
                None
                if hp_wcrt is None
                else hp_wcrt.get(j.name)
            ),
        )
        for j in taskset
        if j.name != task.name
    )
    return digest(
        (
            "delay",
            mode,
            _task_signature(task),
            others,
            budgets,
            num_intervals,
            cancellation_budget,
            solver_signature,
        )
    )

