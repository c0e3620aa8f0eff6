"""Sweep runner: schedulability ratios per protocol per point.

Long sweeps are thousands of MILP solves; this runner isolates faults
per taskset/protocol pair instead of letting one bad solve abort the
sweep. Each failure is captured as a structured :class:`FailureRecord`
in a ledger on the point result, and a :class:`FailurePolicy` decides
how the failed pair enters the ratios. With ``cache_path`` set, every
finished unit is written to the unit store as it completes, so
an interrupted sweep resumes by rerunning it on the same store (see
the unit store in :mod:`repro.experiments.units`).

One scheduler, two drivers
--------------------------
A sweep is a set of (point, task set) work units. The
:class:`~repro.experiments.units.UnitScheduler` is the only place that
turns finished units into points: it serves stored units, writes
finished ones back, merges them in task-set order, appends their trace
events and reports progress. The ``jobs`` argument only decides who
evaluates the units the store did not answer:

* ``jobs=1`` evaluates them in this process, point by point, through
  :func:`~repro.experiments.units._evaluate_unit`.
* ``jobs=N`` hands the scheduler to the sweep service's dispatch loop
  (:func:`repro.service.coordinator.run_local_sweep`). ``N`` worker
  processes, each on its own socketpair, evaluate units through
  :func:`_worker_evaluate`. A worker regenerates its point's sample
  from the deterministic seed ``config.seed + point_index`` (memoised
  per process), so no task set crosses a process boundary, and it
  never opens the store: everything it learns and reports travels as
  JSON frames.

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


def _run_in_process(scheduler: UnitScheduler) -> None:
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
            key = (point_index, index)
            if key not in scheduler.pending:
                continue  # answered by the store
            with _unit_scope(scheduler.fault_plan, point_index, index, 0):
                unit = _evaluate_unit(
                    point,
                    config,
                    seed,
                    index,
                    taskset,
                    scheduler.policy,
                    scheduler.options,
                    recorder=EventRecorder() if writer is not None else None,
                    protocols=scheduler.missing(key),
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
    scheduler = UnitScheduler(
        single, _coerce_policy(failure_policy), options=options
    )
    _run_in_process(scheduler)
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
    protocols: "tuple[str, ...] | None" = None,
) -> _UnitResult:
    """Worker entry point: evaluate one (point, task set) unit.

    Only ``protocols`` are evaluated (default: all of the config's);
    the parent joins them with the unit's stored part. The task set is
    regenerated from the point's seed (memoised per process).
    With a ``fault_plan`` the evaluation runs under a
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
            protocols=protocols,
        )


def run_experiment(
    config: ExperimentConfig,
    options: AnalysisOptions | None = None,
    progress: Callable[[PointResult], None] | None = None,
    failure_policy: FailurePolicy | str = FailurePolicy.COUNT_UNSCHEDULABLE,
    jobs: int = 1,
    trace_path: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    cache_path: "str | None" = None,
) -> SweepResult:
    """Run a full sweep (all points, all protocols, shared task sets).

    Args:
        config: The experiment definition.
        options: Analysis options (e.g. per-MILP time limits).
        progress: Optional callback invoked after each point completes,
            for long-running CLI feedback. Points are reported in
            completion order (the returned sweep is always in point
            order).
        failure_policy: How failed taskset/protocol pairs enter the
            ratios (see :class:`FailurePolicy`).
        jobs: Worker processes. ``1`` (the default) runs in-process;
            ``N > 1`` dispatches (point, task set) units to ``N`` local
            worker processes with bit-identical results (see the
            module docstring), including across worker crashes.
        trace_path: When set, a structured JSONL event trace of the
            run is written there (see :mod:`repro.obs`). The run id
            stamped on every event is the config digest.
        fault_plan: When set, the run executes under deterministic
            fault injection (see :mod:`repro.faults`): a run-level
            scope in the parent covers trace/filesystem sites, and
            every work unit — worker-side or sequential — gets its own
            (point, unit, attempt)-scoped activation. Unit rows are
            then neither read nor written.
        cache_path: When set, the sweep runs on the unit store at this
            path (see :mod:`repro.analysis.store`), shared across runs.
            It holds one row per finished (point, task set) unit with
            each protocol's verdict: stored protocols are served, only
            missing ones are evaluated, and each finished unit is
            written back. An interrupted sweep therefore resumes by
            rerunning it on the same store. Verdicts and ratios are
            bit-identical with the store enabled, disabled, or
            pre-populated, and the ``unit_store.hits`` and
            ``unit_store.corrupt`` counters in ``analysis_stats``
            surface what it served and what it had to drop.
    """
    policy = _coerce_policy(failure_policy)
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    with sweep_session(
        config,
        policy,
        jobs=jobs,
        options=options,
        cache_path=cache_path,
        trace_path=trace_path,
        fault_plan=fault_plan,
        progress=progress,
    ) as scheduler:
        if jobs == 1:
            _run_in_process(scheduler)
        elif not scheduler.done:
            # Imported here: the service imports this module.
            from repro.service.coordinator import run_local_sweep

            run_local_sweep(scheduler, jobs=jobs)
    return scheduler.result()


@contextmanager
def sweep_session(
    config: ExperimentConfig,
    policy: FailurePolicy,
    *,
    jobs: int,
    options: AnalysisOptions | None = None,
    cache_path: "str | None" = None,
    trace_path: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    progress: Callable[[PointResult], None] | None = None,
) -> Iterator[UnitScheduler]:
    """The parent's side of one sweep, around whatever runs its units.

    Activates the run-level fault scope, opens the run's one
    :class:`PersistentStore` on ``cache_path``, opens the trace (run id
    = config digest) with its ``run.start`` event, builds the
    :class:`UnitScheduler`, lets it serve every unit the store already
    holds, and yields it. A clean exit emits ``run.end``; the trace and
    the store are closed either way. Shared by :func:`run_experiment`
    and ``SweepService.process_sweep``; ``jobs`` is only reported.
    """
    from repro.experiments.persistence import config_digest

    plan_scope = (
        faults.injecting(fault_plan) if fault_plan is not None else nullcontext()
    )
    store = PersistentStore(cache_path) if cache_path is not None else None
    writer: TraceWriter | None = None
    with plan_scope:
        try:
            if trace_path is not None:
                writer = TraceWriter(
                    trace_path, run_id=config_digest(config)[:12]
                )
                writer.emit(
                    "run.start",
                    points=len(config.points),
                    sets=config.sets_per_point,
                    jobs=jobs,
                )
            run_start = time.perf_counter()
            scheduler = UnitScheduler(
                config,
                policy,
                options=options,
                store=store,
                writer=writer,
                fault_plan=fault_plan,
                progress=progress,
            )
            scheduler.serve_stored()
            yield scheduler
            if writer is not None:
                writer.emit("run.end", dur=time.perf_counter() - run_start)
        finally:
            if writer is not None:
                writer.close()
            if store is not None:
                store.close()


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
