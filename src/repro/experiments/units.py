"""(Point, task set) work units and the scheduler that completes points.

Every sweep — ``run_experiment`` at any ``jobs`` and the
:mod:`repro.service` coordinator — decomposes an experiment into the
same pure work unit: evaluate the protocols on one task set of one
sweep point. This module owns everything about those units that does
*not* depend on where they run:

* the result dataclasses (:class:`PointResult`, :class:`SweepResult`,
  :class:`FailureRecord`, :class:`_UnitResult`) and the
  :class:`FailurePolicy` that decides how failures enter the ratios;
* :func:`_evaluate_unit` — the one evaluation function, called
  in-process under ``jobs=1`` and by every worker process, inside a
  fresh per-unit cache scope, so verdicts, failure ledgers and cache
  counters are bit-identical however units are placed;
* :func:`_merge_units` — the completion-order-independent fold of unit
  results into a point result;
* :class:`UnitScheduler` — the single place a point is completed:
  which units are pending at which attempt (and which of their
  protocols are still missing), which have crashed how often,
  requeue-or-quarantine decisions, and point completion (trace append
  in task-set order, progress callback). The in-process ``jobs=1``
  loop and the sweep service's dispatch loop both drive it;
* the unit store — the sweep's only durable state. Finished units live
  in the :class:`~repro.analysis.store.PersistentStore` as one row per
  (point, task set), under :func:`unit_digest`, holding every stored
  protocol's (count, attempted) pair and the unit's failure records.
  Before dispatch the scheduler reads every pending unit's row
  (:meth:`UnitScheduler.serve_stored`); a row covering all protocols
  answers its unit, a row covering some leaves only the missing
  protocols to evaluate. Each finished unit is written back as the
  union of its row and the fresh verdicts, so an interrupted sweep
  resumes by rerunning it on the same store, and a sweep extended with
  new protocols evaluates only those. The scheduler, in the sweep's
  parent process, is the store's only reader and writer. The digest
  covers everything a protocol's verdict on the unit depends on
  (generation parameters, seed, task-set index, policy, analysis
  options) and deliberately **excludes** the protocol list and
  ``sets_per_point``:
  :func:`repro.generator.taskset_gen.generate_tasksets` draws
  sequentially from one seeded stream, so task set ``i`` is identical
  no matter how many sets a sweep requests — an overlapping (larger)
  sweep re-uses every unit the smaller one already solved.
"""

from __future__ import annotations

import dataclasses
import enum
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Iterable, Mapping

from repro.analysis.cache import AnalysisCache, cache_scope
from repro.analysis.cache import digest as _cache_digest
from repro.analysis.interface import AnalysisOptions
from repro.analysis.schedulability import is_schedulable
from repro.analysis.store import PersistentStore
from repro.errors import ExperimentError, ReproError, WorkerCrashError
from repro.experiments.config import ExperimentConfig, SweepPoint
from repro.faults.plan import FaultPlan
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.model.taskset import TaskSet
from repro.obs import events as obs
from repro.obs.events import EventRecorder, TraceWriter


class FailurePolicy(str, enum.Enum):
    """What a failed taskset/protocol evaluation means for the ratios.

    * ``RAISE`` — propagate the failure (the historical behaviour).
    * ``SKIP`` — drop the pair from that protocol's denominator.
    * ``COUNT_UNSCHEDULABLE`` — count the pair as unschedulable. This
      is the conservative default: a ratio can only be under-reported
      by a fault, never inflated.
    """

    RAISE = "raise"
    SKIP = "skip"
    COUNT_UNSCHEDULABLE = "count_unschedulable"


def _coerce_policy(policy: "FailurePolicy | str") -> FailurePolicy:
    try:
        return FailurePolicy(policy)
    except ValueError:
        raise ExperimentError(
            f"unknown failure policy {policy!r}; expected one of "
            f"{[p.value for p in FailurePolicy]}"
        ) from None


@dataclass(frozen=True)
class FailureRecord:
    """One captured taskset/protocol failure in a sweep's ledger.

    Attributes:
        x: Sweep-point x value the failure occurred at.
        protocol: Protocol whose evaluation failed.
        seed: The point's generation seed.
        taskset_index: Index of the task set within the point's sample.
        taskset_digest: Stable digest (:meth:`TaskSet.digest`) of the
            failing task set, for offline reproduction.
        error_type: Exception class name.
        message: Exception message.
        degradation: Deepest degradation level reached before the
            failure, when the solver reported one (``None`` otherwise).
    """

    x: float
    protocol: str
    seed: int
    taskset_index: int
    taskset_digest: str
    error_type: str
    message: str
    degradation: int | None = None


@dataclass(frozen=True)
class PointResult:
    """Schedulability ratios of all protocols at one sweep point.

    ``analysis_stats`` aggregates the per-unit analysis-cache counters
    (hits, misses, MILP/LP solves, screen hits) over the point's task
    sets; empty when the evaluation bypassed the real analysis (e.g.
    stubbed in tests or loaded from an old artifact).
    """

    x: float
    ratios: Mapping[str, float]
    sets_evaluated: int
    elapsed_seconds: float
    failures: tuple[FailureRecord, ...] = ()
    analysis_stats: Mapping[str, int] = field(default_factory=dict)

    def ratio(self, protocol: str) -> float:
        return self.ratios[protocol]


@dataclass(frozen=True)
class SweepResult:
    """A full experiment's series, one :class:`PointResult` per point.

    Points are normalised to ascending x on construction, so a result
    assembled from out-of-order completions (parallel execution,
    merged sweep exports) yields the same ``series()``/``x_values`` as a
    strictly sequential run.
    """

    config: ExperimentConfig
    points: tuple[PointResult, ...]

    def __post_init__(self) -> None:
        pts = self.points
        if any(pts[i].x > pts[i + 1].x for i in range(len(pts) - 1)):
            object.__setattr__(
                self,
                "points",
                tuple(sorted(pts, key=lambda p: p.x)),
            )

    def series(self, protocol: str) -> list[tuple[float, float]]:
        """``(x, ratio)`` pairs of one protocol across the sweep."""
        return [(p.x, p.ratios[protocol]) for p in self.points]

    @property
    def x_values(self) -> list[float]:
        return [p.x for p in self.points]

    @property
    def failures(self) -> tuple[FailureRecord, ...]:
        """The whole sweep's failure ledger, in point order."""
        return tuple(f for p in self.points for f in p.failures)

    def advantage(self, protocol: str, over: str) -> float:
        """Largest ratio gap of ``protocol`` over ``over`` (paper-style
        "improvements up to X%" statements)."""
        if not self.points:
            raise ExperimentError(
                "advantage() on an empty sweep: no points were evaluated"
            )
        known = set(self.config.protocols)
        for name in (protocol, over):
            if name not in known:
                raise ExperimentError(
                    f"unknown protocol {name!r}; expected one of "
                    f"{sorted(known)}"
                )
        return max(
            p.ratios[protocol] - p.ratios[over] for p in self.points
        )


@dataclass(frozen=True)
class _UnitResult:
    """Verdict counts of one (point, task set) work unit.

    Pure integer deltas plus the unit's failure ledger and cache
    counters — everything the parent needs to merge units in task-set
    order into a :class:`PointResult` that is bit-identical to the
    sequential evaluation.
    """

    taskset_index: int
    counts: Mapping[str, int]
    attempted: Mapping[str, int]
    failures: tuple[FailureRecord, ...]
    cache_stats: Mapping[str, int]
    elapsed_seconds: float
    #: Buffered trace events of the unit (empty when tracing is off).
    #: Workers never write trace files — they ship their events here
    #: and the parent's TraceWriter persists them (single-writer rule).
    events: tuple[Mapping[str, object], ...] = ()


def _evaluate_unit(
    point: SweepPoint,
    config: ExperimentConfig,
    seed: int,
    taskset_index: int,
    taskset: TaskSet,
    policy: FailurePolicy,
    options: AnalysisOptions | None,
    recorder: EventRecorder | None = None,
    death_check: "Callable[[str | None], None] | None" = None,
    protocols: "tuple[str, ...] | None" = None,
) -> _UnitResult:
    """Evaluate ``protocols`` (default: all of the config's) on one task
    set, inside a fresh cache scope.

    Shared by the in-process path and every worker, so all produce
    the same verdicts, the same failure records in the same order, and
    the same cache counters (the scope is per unit everywhere, which is
    what keeps the counters deterministic across ``jobs``). With a
    ``recorder`` the unit's analysis events (solves, cache traffic,
    fixpoint iterations, per-protocol verdicts) are buffered and
    returned on the unit result. ``death_check`` is the workers'
    ``worker.death`` injection hook (called at unit start and before
    each protocol with the protocol name); it simulates the worker
    dying at that instant, so it exists only where a real crash could
    — in-process units never take it. A unit whose stored row already
    holds some protocols' verdicts is evaluated for the rest only.
    """
    start = time.perf_counter()
    if protocols is None:
        protocols = config.protocols
    counts = {protocol: 0 for protocol in protocols}
    attempted = {protocol: 0 for protocol in protocols}
    failures: list[FailureRecord] = []
    scope = obs.recording(recorder) if recorder is not None else nullcontext()
    with scope, cache_scope(AnalysisCache()) as cache:
        if death_check is not None:
            death_check(None)
        for protocol in protocols:
            if death_check is not None:
                death_check(protocol)
            protocol_start = time.perf_counter()
            try:
                verdict = is_schedulable(
                    taskset,
                    protocol,
                    options=options,
                    method=config.method,
                    ls_policy=config.ls_policy,
                )
            except ReproError as exc:
                if policy is FailurePolicy.RAISE:
                    raise
                degradation = getattr(exc, "degradation", None)
                failures.append(
                    FailureRecord(
                        x=point.x,
                        protocol=protocol,
                        seed=seed,
                        taskset_index=taskset_index,
                        taskset_digest=taskset.digest(),
                        error_type=type(exc).__name__,
                        message=str(exc),
                        degradation=(
                            int(degradation) if degradation is not None else None
                        ),
                    )
                )
                obs.emit(
                    "protocol.failure",
                    dur=time.perf_counter() - protocol_start,
                    protocol=protocol,
                    error=type(exc).__name__,
                )
                if policy is FailurePolicy.COUNT_UNSCHEDULABLE:
                    attempted[protocol] += 1
                continue
            attempted[protocol] += 1
            if verdict:
                counts[protocol] += 1
            obs.emit(
                "protocol.verdict",
                dur=time.perf_counter() - protocol_start,
                protocol=protocol,
                schedulable=verdict,
            )
    return _UnitResult(
        taskset_index=taskset_index,
        counts=counts,
        attempted=attempted,
        failures=tuple(failures),
        cache_stats=cache.stats(),
        elapsed_seconds=time.perf_counter() - start,
        events=recorder.drain() if recorder is not None else (),
    )


def _merge_units(
    point: SweepPoint,
    config: ExperimentConfig,
    units: "list[_UnitResult]",
    elapsed_seconds: float,
) -> PointResult:
    """Fold unit results (any completion order) into one point result.

    Units are sorted by task-set index first, so failure ledgers and
    summed counters are independent of completion order; the ratios
    come from the summed integer counts — the exact division the
    sequential path performs.
    """
    units = sorted(units, key=lambda u: u.taskset_index)
    counts = {protocol: 0 for protocol in config.protocols}
    attempted = {protocol: 0 for protocol in config.protocols}
    stats: dict[str, int] = {}
    failures: list[FailureRecord] = []
    for unit in units:
        for protocol in config.protocols:
            counts[protocol] += unit.counts[protocol]
            attempted[protocol] += unit.attempted[protocol]
        for name, value in unit.cache_stats.items():
            stats[name] = stats.get(name, 0) + value
        failures.extend(unit.failures)
    return PointResult(
        x=point.x,
        ratios={
            p: (counts[p] / attempted[p]) if attempted[p] else 0.0
            for p in config.protocols
        },
        sets_evaluated=len(units),
        elapsed_seconds=elapsed_seconds,
        failures=tuple(failures),
        analysis_stats=stats,
    )


# ----------------------------------------------------------------------
# per-process memos of the worker processes
# ----------------------------------------------------------------------
@lru_cache(maxsize=4)
def _tasksets_for(
    generation: GenerationConfig, count: int, seed: int
) -> tuple[TaskSet, ...]:
    """Per-process memo of one point's generated sample.

    Workers receive only (point index, task set index) and regenerate
    the sample from the deterministic seed — identical to the
    in-process path's — so task sets never cross process boundaries;
    the memo amortises the generation over a point's many units.
    """
    return tuple(generate_tasksets(generation, count, seed))


#: Crashes a single unit may cause before it is quarantined.
_CRASH_QUARANTINE_AT = 2


def _failed_unit(
    config: ExperimentConfig,
    point_index: int,
    taskset_index: int,
    policy: FailurePolicy,
    error_type: str,
    message: str,
    protocols: "tuple[str, ...]",
) -> _UnitResult:
    """Synthetic unit result for work no worker could complete.

    Used for quarantined worker-killer units and for units whose worker
    kept raising unexpected (non-Repro) exceptions: the parent
    regenerates the task set — generation is deterministic and cheap
    next to analysis — so the ledger still carries the digest needed
    to reproduce the failure offline, and every protocol the unit still
    had to evaluate records one :class:`FailureRecord` entering the
    ratios per the policy.
    """
    point = config.points[point_index]
    seed = config.seed + point_index
    taskset = _tasksets_for(point.generation, config.sets_per_point, seed)[
        taskset_index
    ]
    count_it = policy is FailurePolicy.COUNT_UNSCHEDULABLE
    return _UnitResult(
        taskset_index=taskset_index,
        counts={protocol: 0 for protocol in protocols},
        attempted={protocol: 1 if count_it else 0 for protocol in protocols},
        failures=tuple(
            FailureRecord(
                x=point.x,
                protocol=protocol,
                seed=seed,
                taskset_index=taskset_index,
                taskset_digest=taskset.digest(),
                error_type=error_type,
                message=message,
            )
            for protocol in protocols
        ),
        cache_stats={},
        elapsed_seconds=0.0,
    )


# ----------------------------------------------------------------------
# the unit store: one row per (point, task set), every protocol's verdict
# ----------------------------------------------------------------------
def unit_digest(
    config: ExperimentConfig,
    point_index: int,
    taskset_index: int,
    options: AnalysisOptions | None,
    policy: "FailurePolicy | str",
) -> str:
    """Content address of one unit's stored row.

    Covers everything a protocol's count, ledger entry and verdict on
    the unit are a function of: the point's generation parameters and
    x value, the derived seed, the task-set index, the LS policy, the
    analysis method and options, and the failure policy (which decides
    how failures enter ``attempted``). Deliberately absent: the
    protocol list (the row keeps each protocol's verdict separately and
    grows as sweeps add protocols), ``sets_per_point`` (task set ``i``
    is identical regardless of how many sets are drawn after it —
    sequential seeded stream) and the experiment's name/x-label (pure
    labels). Two sweeps that overlap in these inputs share rows, which
    is what lets a repeated, widened or extended sweep start warm.
    """
    point = config.points[point_index]
    generation = dataclasses.asdict(point.generation)
    return _cache_digest(
        (
            "unit",
            tuple(sorted(generation.items())),
            point.x,
            config.seed + point_index,
            taskset_index,
            config.ls_policy,
            config.method,
            repr(options if options is not None else AnalysisOptions()),
            _coerce_policy(policy).value,
        )
    )


def _in_protocol_order(
    config: ExperimentConfig, failures: "Iterable[FailureRecord]"
) -> tuple[FailureRecord, ...]:
    """Failure records in ``config.protocols`` order — the order a full
    evaluation appends them in (a unit has at most one per protocol)."""
    order = config.protocols.index
    return tuple(sorted(failures, key=lambda f: order(f.protocol)))


def _stored_part(
    config: ExperimentConfig,
    taskset_index: int,
    row: "Mapping[str, Any] | None",
    trace: bool,
) -> _UnitResult:
    """The part of a unit its stored row answers, as a served result.

    Holds the row's (count, attempted) pairs and failure records for
    the config's protocols it covers. Cache counters, elapsed time and
    events are *runtime* descriptions of how a result was obtained, so
    the row stores none: the served part synthesises exactly one
    counter, ``unit_store.hits``, bumped through a scratch
    :class:`AnalysisCache` under a recorder scope, and replays one
    ``protocol.failure`` event per served ledger record — the trace's
    cache counters and failure events then reconcile with its
    ``point.end`` records by the same construction as for evaluated
    units. A ``None`` row — one that failed its sha256 check and was
    dropped — answers no protocol and counts ``unit_store.corrupt``
    instead, so the loss shows on the unit's ``analysis_stats``.
    """
    verdicts = row["verdicts"] if row is not None else {}
    failures = row["failures"] if row is not None else []
    if not isinstance(verdicts, dict) or not isinstance(failures, list):
        raise ExperimentError(f"malformed stored unit row: {row!r}")
    protocols = [p for p in config.protocols if p in verdicts]
    served = _in_protocol_order(
        config,
        [FailureRecord(**f) for f in failures if f["protocol"] in protocols],
    )
    recorder = EventRecorder() if trace else None
    scratch = AnalysisCache()
    scope = obs.recording(recorder) if recorder is not None else nullcontext()
    with scope:
        scratch.bump(
            "unit_store.hits" if row is not None else "unit_store.corrupt"
        )
        for failure in served:
            obs.emit(
                "protocol.failure",
                protocol=failure.protocol,
                error=failure.error_type,
            )
    return _UnitResult(
        taskset_index=taskset_index,
        counts={p: int(verdicts[p][0]) for p in protocols},
        attempted={p: int(verdicts[p][1]) for p in protocols},
        failures=served,
        cache_stats=scratch.stats(),
        elapsed_seconds=0.0,
        events=recorder.drain() if recorder is not None else (),
    )


def _join_units(
    config: ExperimentConfig, stored: _UnitResult, fresh: _UnitResult
) -> _UnitResult:
    """One unit from its stored part and its freshly evaluated rest.

    Failure records come out in ``config.protocols`` order, so ledgers
    stay bit-identical however a unit was split between the store and
    a worker.
    """
    counts = {**stored.counts, **fresh.counts}
    attempted = {**stored.attempted, **fresh.attempted}
    stats = dict(stored.cache_stats)
    for name, value in fresh.cache_stats.items():
        stats[name] = stats.get(name, 0) + value
    return _UnitResult(
        taskset_index=fresh.taskset_index,
        counts={p: counts[p] for p in config.protocols},
        attempted={p: attempted[p] for p in config.protocols},
        failures=_in_protocol_order(config, stored.failures + fresh.failures),
        cache_stats=stats,
        elapsed_seconds=fresh.elapsed_seconds,
        events=stored.events + fresh.events,
    )


def _grown_row(row: "Mapping[str, Any] | None", fresh: _UnitResult) -> dict:
    """A stored row extended by freshly evaluated protocols.

    The fresh protocols are exactly the ones the row lacked, so the
    union covers strictly more protocols and wins the store's upsert.
    """
    verdicts = dict(row["verdicts"]) if row is not None else {}
    failures = list(row["failures"]) if row is not None else []
    for protocol in fresh.counts:
        verdicts[protocol] = [
            fresh.counts[protocol], fresh.attempted[protocol]
        ]
    failures.extend(dataclasses.asdict(f) for f in fresh.failures)
    return {"verdicts": verdicts, "failures": failures}


def unit_from_wire(raw: Mapping[str, object]) -> _UnitResult:
    """Decode a worker's full unit result from its wire payload."""
    failures = raw.get("failures", [])
    events = raw.get("events", [])
    if not isinstance(failures, list) or not isinstance(events, list):
        raise ExperimentError("malformed unit result on the wire")
    return _UnitResult(
        taskset_index=int(raw["taskset_index"]),  # type: ignore[arg-type]
        counts=dict(raw["counts"]),  # type: ignore[arg-type]
        attempted=dict(raw["attempted"]),  # type: ignore[arg-type]
        failures=tuple(FailureRecord(**f) for f in failures),
        cache_stats=dict(raw["cache_stats"]),  # type: ignore[arg-type]
        elapsed_seconds=float(raw["elapsed_seconds"]),  # type: ignore[arg-type]
        events=tuple(events),
    )


def unit_to_wire(unit: _UnitResult) -> dict:
    """Encode a full unit result (counters, events and all) for the wire."""
    return {
        "taskset_index": unit.taskset_index,
        "counts": dict(unit.counts),
        "attempted": dict(unit.attempted),
        "failures": [dataclasses.asdict(f) for f in unit.failures],
        "cache_stats": dict(unit.cache_stats),
        "elapsed_seconds": unit.elapsed_seconds,
        "events": [dict(e) for e in unit.events],
    }


# ----------------------------------------------------------------------
# the dispatch-agnostic scheduler
# ----------------------------------------------------------------------
class UnitScheduler:
    """Unit bookkeeping, the unit store, crash accounting, point completion.

    Owns the pending-unit ledger (unit key → next attempt number), the
    stored part of each partially stored unit, the per-unit crash
    counts, the per-point result buckets, and the point completion
    pipeline (merge in task-set order → trace append → progress
    callback). It never dispatches anything itself:
    ``run_experiment(jobs=1)`` evaluates pending units in-process and
    the sweep service's dispatch loop sends them to worker processes;
    both feed outcomes back through :meth:`record_unit`/
    :meth:`record_crash`.

    ``store`` is the run's one :class:`PersistentStore` handle (opened
    and closed by :func:`repro.experiments.runner.sweep_session`). The
    scheduler alone reads unit rows (:meth:`serve_stored`) and writes
    them back (:meth:`record_unit`), so every driver shares one probe
    and one write-back. With a fault plan active it does neither:
    injected faults must actually execute, and their outcomes must not
    poison the store. Quarantined and worker-error units are never
    stored either.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        policy: FailurePolicy,
        *,
        options: AnalysisOptions | None = None,
        store: PersistentStore | None = None,
        writer: TraceWriter | None = None,
        fault_plan: FaultPlan | None = None,
        progress: "Callable[[PointResult], None] | None" = None,
    ) -> None:
        self.config = config
        self.policy = policy
        self.options = options
        self.store = store
        self.writer = writer
        self.fault_plan = fault_plan
        self.progress = progress
        self._rows = store if fault_plan is None else None
        self.completed: dict[int, PointResult] = {}
        self._point_started = {
            index: time.perf_counter() for index in range(len(config.points))
        }
        self._unit_results: dict[int, dict[int, _UnitResult]] = {
            index: {} for index in self._point_started
        }
        #: Unit key -> next attempt number; removed on success/quarantine.
        self.pending: dict[tuple[int, int], int] = {
            (point_index, taskset_index): 0
            for point_index in sorted(self._point_started)
            for taskset_index in range(config.sets_per_point)
        }
        self.crash_counts: dict[tuple[int, int], int] = {}
        self.total_units = len(self.pending)
        #: Units the store answered, in full or in part.
        self.served = 0
        #: Unit key -> its stored row (kept for the write-back union).
        self._row_of: dict[tuple[int, int], Mapping[str, Any]] = {}
        #: Unit key -> the part of a partially stored unit its row answers.
        self._stored: dict[tuple[int, int], _UnitResult] = {}

    def _digest(self, key: "tuple[int, int]") -> str:
        return unit_digest(
            self.config, key[0], key[1], self.options, self.policy
        )

    def serve_stored(self) -> None:
        """Answer pending units from their stored rows, before dispatch.

        One batched read covers every pending unit. A row holding all
        of the sweep's protocols completes its unit here; a row holding
        some leaves the unit pending for the missing ones
        (:meth:`missing`). Either way the unit counts one
        ``unit_store.hits``; a miss, or a row holding none of the
        sweep's protocols, counts nothing. A row that failed its sha256
        check was dropped by the store: its unit counts one
        ``unit_store.corrupt`` and is evaluated afresh.
        """
        if self._rows is None or not self.pending:
            return
        digests = {key: self._digest(key) for key in self.pending}
        rows = self._rows.fetch_many(digests.values())
        trace = self.writer is not None
        for key in sorted(digests):
            if digests[key] not in rows:
                continue
            entry = rows[digests[key]]
            row = entry[1] if entry is not None else None
            part = _stored_part(self.config, key[1], row, trace)
            if row is None:
                self._stored[key] = part
                continue
            self._row_of[key] = row
            if not part.counts:
                continue
            self.served += 1
            if len(part.counts) == len(self.config.protocols):
                self._complete(key, part)
            else:
                self._stored[key] = part

    def missing(self, key: "tuple[int, int]") -> "tuple[str, ...]":
        """The protocols a pending unit still has to evaluate."""
        stored = self._stored.get(key)
        if stored is None:
            return self.config.protocols
        return tuple(
            p for p in self.config.protocols if p not in stored.counts
        )

    def start_point(self, point_index: int) -> None:
        """Restart a point's clock (for drivers that run points in turn)."""
        self._point_started[point_index] = time.perf_counter()

    @property
    def done(self) -> bool:
        return not self.pending

    def suspects(self) -> "list[tuple[int, int]]":
        """Pending units already implicated in at least one crash."""
        return sorted(
            key for key in self.pending if self.crash_counts.get(key, 0) > 0
        )

    def _emit(self, name: str, **kwargs: object) -> None:
        if self.writer is not None:
            self.writer.emit(name, **kwargs)  # type: ignore[arg-type]

    def _emit_synthesized_fault(
        self, key: "tuple[int, int]", attempt: int
    ) -> None:
        # The fault that killed the worker never reached the trace: a
        # worker.death event died with the process's buffer, and a
        # service.disconnect fires before the unit has a recorder at
        # all. Re-derive it from the plan's static predicates so the
        # trace still proves the injection, checking the sites in the
        # order the worker fires them. (A real, un-injected crash has no
        # matching spec and emits nothing here.)
        if self.writer is None or self.fault_plan is None:
            return
        for site in ("service.disconnect", "worker.death"):
            spec = self.fault_plan.matching(
                site, point=key[0], unit=key[1], attempt=attempt
            )
            if spec is not None:
                self.writer.emit(
                    f"fault.{site}",
                    point=key[0],
                    unit=key[1],
                    mode=spec.mode,
                    plan=self.fault_plan.name,
                    synthesized=True,
                )
                return

    def record_unit(self, point_index: int, unit: _UnitResult) -> None:
        """Accept one evaluated unit (its missing protocols only) and
        write it back to the store as its row grown by those protocols."""
        key = (point_index, unit.taskset_index)
        if key not in self.pending:
            return  # duplicate of a unit already satisfied
        if self._rows is not None:
            row = _grown_row(self._row_of.get(key), unit)
            self._rows.store(self._digest(key), ("unit", row))
        self._complete(key, unit)

    def _complete(self, key: "tuple[int, int]", unit: _UnitResult) -> None:
        """Settle one unit; complete its point on the point's last one."""
        point_index = key[0]
        del self.pending[key]
        self._row_of.pop(key, None)
        stored = self._stored.pop(key, None)
        if stored is not None:
            unit = _join_units(self.config, stored, unit)
        bucket = self._unit_results[point_index]
        bucket[unit.taskset_index] = unit
        if len(bucket) < self.config.sets_per_point:
            return
        del self._unit_results[point_index]
        result = _merge_units(
            self.config.points[point_index],
            self.config,
            list(bucket.values()),
            time.perf_counter() - self._point_started[point_index],
        )
        self.completed[point_index] = result
        if self.writer is not None:
            for index in sorted(bucket):
                self.writer.write_events(
                    bucket[index].events, point=point_index, unit=index
                )
            self.writer.emit(
                "point.end",
                dur=result.elapsed_seconds,
                point=point_index,
                x=result.x,
                failures=len(result.failures),
                stats=dict(result.analysis_stats),
            )
        if self.progress is not None:
            self.progress(result)

    def record_crash(
        self, key: "tuple[int, int]", attempt: int, error_type: str,
        message: str,
    ) -> None:
        """Count one crash/unexpected failure of a pending unit and
        either requeue it (attempt + 1) or give up on it."""
        self.crash_counts[key] = self.crash_counts.get(key, 0) + 1
        self._emit_synthesized_fault(key, attempt)
        if self.crash_counts[key] < _CRASH_QUARANTINE_AT:
            self.pending[key] = attempt + 1
            self._emit(
                "worker.requeued",
                point=key[0],
                unit=key[1],
                attempt=attempt + 1,
                error=error_type,
            )
            return
        if self.policy is FailurePolicy.RAISE:
            raise WorkerCrashError(
                f"work unit (point {key[0]}, set {key[1]}) failed "
                f"{self.crash_counts[key]} worker processes "
                f"({error_type}: {message}); quarantined"
            )
        self._emit(
            "worker.quarantined",
            point=key[0],
            unit=key[1],
            crashes=self.crash_counts[key],
            error=error_type,
        )
        self._complete(
            key,
            _failed_unit(
                self.config, key[0], key[1], self.policy, error_type,
                message, self.missing(key),
            ),
        )

    def result(self) -> SweepResult:
        """The finished sweep (every point must have completed)."""
        return SweepResult(
            config=self.config,
            points=tuple(
                self.completed[index]
                for index in range(len(self.config.points))
            ),
        )
