"""Sweep runner: schedulability ratios per protocol per point.

Long sweeps are thousands of MILP solves; this runner isolates faults
per taskset/protocol pair instead of letting one bad solve abort the
sweep. Each failure is captured as a structured :class:`FailureRecord`
in a ledger on the point result, and a :class:`FailurePolicy` decides
how the failed pair enters the ratios. With ``checkpoint_path`` set,
every completed point is persisted atomically so an interrupted sweep
resumes from where it stopped (see
:mod:`repro.experiments.persistence`).

One scheduler, two drivers
--------------------------
A sweep is a set of (point, task set) work units. The
:class:`~repro.experiments.units.UnitScheduler` is the only place that
turns finished units into points: it merges them in task-set order,
appends their trace events, writes the checkpoint and reports
progress. The ``jobs`` argument only decides who evaluates the units:

* ``jobs=1`` evaluates them in this process, point by point, through
  :func:`~repro.experiments.units._evaluate_unit`, with one
  persistent-store handle for the whole run.
* ``jobs=N`` hands the scheduler to the sweep service's dispatch loop
  (:func:`repro.service.coordinator.run_local_sweep`). ``N`` worker
  processes, each on its own socketpair, evaluate units through
  :func:`_worker_evaluate`. A worker regenerates its point's sample
  from the deterministic seed ``config.seed + point_index`` (memoised
  per process), so no task set crosses a process boundary.

Both drivers open one fresh analysis cache per unit, so ratios,
failure ledgers and cache counters are bit-identical for every
``jobs``.

Worker crashes
--------------
A worker holds one unit at a time, so a dropped connection names the
unit that killed it. That unit is requeued with an incremented
attempt and re-run alone; a unit that kills two workers is
quarantined into the ledger as ``WorkerCrashError`` records (raised
instead under :attr:`FailurePolicy.RAISE`), and dead workers are
replaced within a per-sweep respawn budget. This is the sweep
service's own policy (see :mod:`repro.service.coordinator`). Workers
are deterministic, so a re-run unit returns bit-identical counts, and
the chaos tests pin ``jobs=1 == jobs=N`` under injected faults
(:mod:`repro.faults`, ``run_experiment(..., fault_plan=...)``).
"""

from __future__ import annotations

import dataclasses
import os
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Callable, Iterator

from repro.analysis.cache import AnalysisCache, cache_scope
from repro.analysis.interface import AnalysisOptions
from repro.analysis.schedulability import is_schedulable
from repro.analysis.store import PersistentStore
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, SweepPoint
from repro.experiments.units import (
    FailurePolicy,
    UnitScheduler,
    _coerce_policy,
    _evaluate_unit,
    _store_for,
    _tasksets_for,
    _UnitResult,
    PointResult,
    SweepResult,
)
from repro.experiments.units import FailureRecord as FailureRecord
from repro.faults import injection as faults
from repro.faults.plan import FaultPlan
from repro.generator.taskset_gen import generate_tasksets
from repro.model.taskset import TaskSet
from repro.obs.events import EventRecorder, TraceWriter


def _unit_scope(
    fault_plan: FaultPlan | None,
    point_index: int,
    taskset_index: int,
    attempt: int,
) -> AbstractContextManager[object]:
    """The per-unit fault-injection scope (a no-op without a plan)."""
    if fault_plan is None:
        return nullcontext()
    return faults.injecting(
        fault_plan, point=point_index, unit=taskset_index, attempt=attempt
    )


def _run_in_process(
    scheduler: UnitScheduler,
    options: AnalysisOptions | None,
    store: PersistentStore | None,
) -> None:
    """Evaluate every pending unit in this process, point by point.

    Each point's sample is generated once. Every unit gets its own
    (point, unit)-scoped fault activation, the same scoping workers
    use, so unit-level fault budgets behave identically for any
    ``jobs``. There is no ``worker.death`` hook: no worker process
    exists here to die.
    """
    config, writer = scheduler.config, scheduler.writer
    for point_index in sorted({key[0] for key in scheduler.pending}):
        point = config.points[point_index]
        seed = config.seed + point_index
        scheduler.start_point(point_index)
        start = time.perf_counter()
        tasksets = list(
            generate_tasksets(point.generation, config.sets_per_point, seed)
        )
        if writer is not None:
            writer.emit(
                "gen.tasksets",
                dur=time.perf_counter() - start,
                point=point_index,
                sets=len(tasksets),
            )
        for index, taskset in enumerate(tasksets):
            with _unit_scope(scheduler.fault_plan, point_index, index, 0):
                unit = _evaluate_unit(
                    point,
                    config,
                    seed,
                    index,
                    taskset,
                    scheduler.policy,
                    options,
                    recorder=EventRecorder() if writer is not None else None,
                    store=store,
                )
            scheduler.record_unit(point_index, unit)


def run_point(
    point: SweepPoint,
    config: ExperimentConfig,
    seed: int,
    options: AnalysisOptions | None = None,
    failure_policy: FailurePolicy | str = FailurePolicy.COUNT_UNSCHEDULABLE,
) -> PointResult:
    """Evaluate every protocol on the same task sets at one point.

    A one-point, in-process sweep of ``point`` with base seed ``seed``.
    A failing taskset/protocol pair never aborts the point (unless the
    policy is ``RAISE``): it is recorded in the point's failure ledger
    and enters the ratio per ``failure_policy``.
    """
    single = dataclasses.replace(config, points=(point,), seed=seed)
    scheduler = UnitScheduler(single, _coerce_policy(failure_policy), {})
    _run_in_process(scheduler, options, store=None)
    return scheduler.completed[0]


def _death_check_for(
    point_index: int, taskset_index: int
) -> "Callable[[str | None], None]":
    """Worker-side ``worker.death`` hook: simulate this process dying."""

    def death_check(protocol: "str | None") -> None:
        spec = faults.fire("worker.death", protocol=protocol)
        if spec is None:
            return
        if spec.mode == "exit":
            # A real crash: no exception, no cleanup — the connection
            # drops and the coordinator counts it against this unit.
            os._exit(78)
        raise RuntimeError(
            f"injected unexpected worker error "
            f"(point {point_index}, set {taskset_index})"
        )

    return death_check


def _worker_evaluate(
    config: ExperimentConfig,
    point_index: int,
    taskset_index: int,
    options: AnalysisOptions | None,
    policy_value: str,
    trace: bool = False,
    fault_plan: FaultPlan | None = None,
    attempt: int = 0,
    cache_path: "str | None" = None,
) -> _UnitResult:
    """Worker entry point: evaluate one (point, task set) unit.

    The task set is regenerated from the point's seed (memoised per
    process) and the persistent store is this process's own handle on
    ``cache_path``. With a ``fault_plan`` the evaluation runs under a
    fresh per-unit injection scope carrying the (point, unit, attempt)
    context, and takes the ``worker.death`` hook.
    """
    point = config.points[point_index]
    seed = config.seed + point_index
    recorder = EventRecorder() if trace else None
    with _unit_scope(fault_plan, point_index, taskset_index, attempt):
        if recorder is not None:
            recorder.emit("worker.unit", pid=os.getpid())
            with recorder.span("gen.tasksets", sets=config.sets_per_point):
                taskset = _tasksets_for(
                    point.generation, config.sets_per_point, seed
                )[taskset_index]
        else:
            taskset = _tasksets_for(
                point.generation, config.sets_per_point, seed
            )[taskset_index]
        return _evaluate_unit(
            point,
            config,
            seed,
            taskset_index,
            taskset,
            FailurePolicy(policy_value),
            options,
            recorder=recorder,
            death_check=(
                _death_check_for(point_index, taskset_index)
                if fault_plan is not None
                else None
            ),
            store=_store_for(cache_path) if cache_path is not None else None,
        )


def run_experiment(
    config: ExperimentConfig,
    options: AnalysisOptions | None = None,
    progress: Callable[[PointResult], None] | None = None,
    failure_policy: FailurePolicy | str = FailurePolicy.COUNT_UNSCHEDULABLE,
    checkpoint_path: "str | None" = None,
    resume: bool = False,
    jobs: int = 1,
    trace_path: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    cache_path: "str | None" = None,
) -> SweepResult:
    """Run a full sweep (all points, all protocols, shared task sets).

    Args:
        config: The experiment definition.
        options: Analysis options (e.g. per-MILP time limits).
        progress: Optional callback invoked after each point this run
            completes (points loaded by ``resume`` are not reported),
            for long-running CLI feedback. Under ``jobs > 1`` points
            are reported in completion order (the returned sweep is
            always in point order).
        failure_policy: How failed taskset/protocol pairs enter the
            ratios (see :class:`FailurePolicy`).
        checkpoint_path: When set, each completed point is persisted
            there atomically and durably (JSON keyed by a config
            digest, per-point content digests, fsync'd temp-and-rename
            writes); only the parent process ever writes it. Stale
            ``*.tmp`` leftovers of a crashed prior run are cleaned up
            on startup.
        resume: Reload ``checkpoint_path`` and skip the points it
            already holds; point ``i`` always uses ``config.seed + i``,
            so a resumed sweep is bit-identical to an uninterrupted
            one. The load is tolerant: points that fail their content
            digest (torn by a crash, bit rot) are dropped — and hence
            re-solved — instead of aborting the resume; each recovery
            is surfaced as a ``checkpoint.recovered`` trace event.
        jobs: Worker processes. ``1`` (the default) runs in-process;
            ``N > 1`` dispatches (point, task set) units to ``N`` local
            worker processes with bit-identical results (see the
            module docstring), including across worker crashes.
        trace_path: When set, a structured JSONL event trace of the
            run is written there (see :mod:`repro.obs`). The run id
            stamped on every event is the config digest, so a trace is
            attributable to its checkpoint. Points skipped via
            ``resume`` emit nothing.
        fault_plan: When set, the run executes under deterministic
            fault injection (see :mod:`repro.faults`): a run-level
            scope in the parent covers checkpoint/trace/filesystem
            sites, and every work unit — worker-side or sequential —
            gets its own (point, unit, attempt)-scoped activation.
        cache_path: When set, every unit's analysis cache is backed by
            the persistent sqlite store at this path (see
            :mod:`repro.analysis.store`), shared across runs, points,
            and worker processes. Verdicts and ratios are bit-identical
            with the store enabled, disabled, or pre-populated — the
            store only changes which tier answers a lookup — and the
            ``persistent.*`` counters in ``analysis_stats`` surface how
            much work it saved.
    """
    policy = _coerce_policy(failure_policy)
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    with sweep_session(
        config,
        policy,
        jobs=jobs,
        checkpoint_path=checkpoint_path,
        resume=resume,
        trace_path=trace_path,
        fault_plan=fault_plan,
        progress=progress,
    ) as scheduler:
        if jobs == 1:
            store = (
                PersistentStore(cache_path) if cache_path is not None else None
            )
            try:
                _run_in_process(scheduler, options, store)
            finally:
                if store is not None:
                    store.close()
        elif not scheduler.done:
            # Imported here: the service imports this module.
            from repro.service.coordinator import run_local_sweep

            run_local_sweep(
                scheduler,
                jobs=jobs,
                options=options,
                cache_path=cache_path,
            )
    return scheduler.result()


@contextmanager
def sweep_session(
    config: ExperimentConfig,
    policy: FailurePolicy,
    *,
    jobs: int,
    checkpoint_path: "str | None" = None,
    resume: bool = False,
    trace_path: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    progress: Callable[[PointResult], None] | None = None,
) -> Iterator[UnitScheduler]:
    """The parent's side of one sweep, around whatever runs its units.

    Activates the run-level fault scope, removes stale checkpoint temp
    files, loads the checkpoint when resuming, opens the trace (run id
    = config digest) with its ``run.start`` event, and yields the
    :class:`UnitScheduler`. A clean exit emits ``run.end``; the trace
    is closed either way. Shared by :func:`run_experiment` and
    ``SweepService.process_sweep``; ``jobs`` is only reported.
    """
    from repro.experiments.persistence import (
        cleanup_stale_tmp,
        config_digest,
        load_checkpoint_recovering,
    )

    plan_scope = (
        faults.injecting(fault_plan) if fault_plan is not None else nullcontext()
    )
    with plan_scope:
        completed: dict[int, PointResult] = {}
        recovered: list[str] = []
        if checkpoint_path is not None:
            cleanup_stale_tmp(checkpoint_path)
            if resume:
                completed, recovered = load_checkpoint_recovering(
                    checkpoint_path, config
                )
        writer: TraceWriter | None = None
        if trace_path is not None:
            writer = TraceWriter(trace_path, run_id=config_digest(config)[:12])
        try:
            if writer is not None:
                writer.emit(
                    "run.start",
                    points=len(config.points),
                    sets=config.sets_per_point,
                    jobs=jobs,
                    resumed=len(completed),
                )
                for problem in recovered:
                    writer.emit("checkpoint.recovered", detail=problem)
            run_start = time.perf_counter()
            yield UnitScheduler(
                config,
                policy,
                completed,
                checkpoint_path=checkpoint_path,
                writer=writer,
                fault_plan=fault_plan,
                progress=progress,
            )
            if writer is not None:
                writer.emit("run.end", dur=time.perf_counter() - run_start)
        finally:
            if writer is not None:
                writer.close()


def compare_on_taskset(
    taskset: TaskSet,
    protocols: tuple[str, ...] = ("nps", "wasly", "proposed"),
    options: AnalysisOptions | None = None,
    method: str = "milp",
) -> dict[str, bool]:
    """Verdicts of several protocols on one concrete task set.

    All protocols share one analysis-cache scope: fixpoint solves
    whose inputs coincide across protocols are paid for once.
    """
    with cache_scope(AnalysisCache()):
        return {
            protocol: is_schedulable(
                taskset, protocol, options=options, method=method
            )
            for protocol in protocols
        }
