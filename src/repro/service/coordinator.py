"""Sweep-service coordinator: shard, dispatch, merge.

One asyncio server accepts both roles on one port (the first frame's
``hello`` names the role). Workers register into an idle pool; clients
submit sweep configs and stream progress back. Sweeps are processed
one at a time — the coordinator is the *parent* of the sweep in
exactly the sense the local engines use the word: the only writer of
the trace and of the unit rows in the store.

The pipeline per submitted sweep:

1. **Store.** The sweep's session (:func:`repro.experiments.runner.
   sweep_session`, the same one ``run_experiment`` uses) opens the
   store on ``cache_path`` and serves every unit whose stored row
   already holds its verdicts, before anything is dispatched; a unit
   whose row holds some protocols is dispatched for the missing ones
   only. A fully-warm repeat submit therefore completes without a
   single solve or dispatch, and a coordinator restart is survivable:
   resubmit, and only the units that never finished are recomputed.
2. **Dispatch.** Remaining units go to idle workers in sorted order
   (:meth:`SweepService.dispatch`). A worker holds one unit at a time,
   so a connection dying mid-unit is a crash of exactly that unit: it
   is requeued with an incremented attempt and re-run alone, and
   quarantined into the ledger once it has killed two workers. Dead
   workers are replaced within a per-sweep respawn budget.
3. **Merge.** Unit results merge through the
   :class:`~repro.experiments.units.UnitScheduler`, which also writes
   each finished unit back to the store, so the next overlapping sweep
   starts warmer.

The dispatch step is also ``run_experiment(jobs=N)``'s engine
(:func:`run_local_sweep`): an unstarted service connects ``N`` local
workers over socketpairs and runs the same dispatch loop.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import socket
from typing import Awaitable, Callable, TypeVar

from repro.analysis.interface import AnalysisOptions
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.persistence import (
    _config_from_dict,
    config_digest,
    sweep_to_dict,
)
from repro.experiments.runner import sweep_session
from repro.experiments.units import (
    FailurePolicy,
    PointResult,
    SweepResult,
    UnitScheduler,
    _coerce_policy,
    unit_from_wire,
)
from repro.faults.plan import FaultPlan
from repro.obs.events import TraceWriter
from repro.service.wire import (
    encode_frame,
    recv_message_async,
    send_message_async,
)
from repro.service.worker import (
    options_from_dict,
    options_to_dict,
    spawn_local_worker,
    spawn_worker,
)

_T = TypeVar("_T")


class _WorkerConn:
    """Coordinator-side state of one connected worker."""

    def __init__(
        self,
        worker_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.id = worker_id
        self.reader = reader
        self.writer = writer
        self.alive = True
        #: Sweep ids whose config this worker already holds.
        self.known_sweeps: set[str] = set()
        #: Unit key currently dispatched to this worker, if any.
        self.unit: "tuple[int, int] | None" = None
        self.closed = asyncio.Event()


class SweepService:
    """The coordinator: owns the workers and processes sweeps.

    Workers are local processes the service spawns itself: a started
    service (``repro serve``) has them connect to its port, an
    unstarted one (the local fleet of :func:`run_local_sweep`) gives
    each its own socketpair and never listens. Dead workers are
    replaced, bounded per sweep by a ``4 + 2 * units`` respawn budget.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache_path: "str | None" = None,
        trace_dir: "str | None" = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.cache_path = cache_path
        self.trace_dir = trace_dir
        self.fault_plan = fault_plan
        self._server: "asyncio.AbstractServer | None" = None
        self._workers: dict[int, _WorkerConn] = {}
        self._idle: "asyncio.Queue[_WorkerConn]" = asyncio.Queue()
        self._next_worker_id = 0
        self._next_sweep = 0
        self._sweep_lock = asyncio.Lock()
        self._writer: TraceWriter | None = None
        self._respawns = 0
        self._respawn_budget = 0
        self._processes: list[multiprocessing.Process] = []
        #: Spawned worker processes that have not joined yet — a
        #: slow-booting worker is waited for, not replaced.
        self._joining: list[multiprocessing.Process] = []
        self._pair_tasks: list[asyncio.Task] = []
        self.sweeps_done = 0
        self._sweep_finished = asyncio.Event()

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        for worker in list(self._workers.values()):
            try:
                await send_message_async(worker.writer, {"type": "shutdown"})
            except (ConnectionError, OSError):
                pass
            worker.alive = False
            worker.closed.set()
            worker.writer.close()
        self._workers.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._pair_tasks:
            task.cancel()
        await asyncio.gather(*self._pair_tasks, return_exceptions=True)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)

    def spawn_workers(self, count: int) -> None:
        """Start ``count`` local worker processes."""
        for _ in range(count):
            if self._server is None:
                process, sock = spawn_local_worker()
                self._pair_tasks.append(
                    asyncio.create_task(self._on_pair(sock))
                )
            else:
                process = spawn_worker(self.host, self.port)
            self._processes.append(process)
            self._joining.append(process)

    async def wait_for_sweeps(self, count: int) -> None:
        """Block until ``count`` sweeps have been processed."""
        while self.sweeps_done < count:
            self._sweep_finished.clear()
            await self._sweep_finished.wait()

    @property
    def live_workers(self) -> int:
        return sum(1 for w in self._workers.values() if w.alive)

    # -- connection handling -------------------------------------------
    async def _on_pair(self, sock: socket.socket) -> None:
        reader, writer = await asyncio.open_connection(sock=sock)
        await self._on_connection(reader, writer)

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        hello = await recv_message_async(reader)
        if hello is None or hello.get("type") != "hello":
            writer.close()
            return
        if hello.get("role") == "worker":
            pid = hello.get("pid")
            self._joining = [p for p in self._joining if p.pid != pid]
            await self._handle_worker(reader, writer)
        else:
            await self._handle_client(reader, writer)

    async def _handle_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        worker = _WorkerConn(self._next_worker_id, reader, writer)
        self._next_worker_id += 1
        self._workers[worker.id] = worker
        try:
            await send_message_async(writer, {
                "type": "welcome",
                "fault_plan": (
                    self.fault_plan.to_dict()
                    if self.fault_plan is not None
                    else None
                ),
            })
        except (ConnectionError, OSError):
            self._drop_worker(worker)
            return
        self._emit("service.worker.joined", worker=worker.id)
        self._idle.put_nowait(worker)
        # Hold the connection open until the dispatch path (or stop())
        # declares the worker gone; all reads happen in _run_unit.
        await worker.closed.wait()

    def _drop_worker(self, worker: _WorkerConn) -> None:
        if not worker.alive:
            return
        worker.alive = False
        worker.closed.set()
        self._workers.pop(worker.id, None)
        self._emit(
            "service.worker.left",
            worker=worker.id,
            mid_unit=0 if worker.unit is None else 1,
        )
        try:
            worker.writer.close()
        except OSError:
            pass

    async def _acquire_worker(self) -> _WorkerConn:
        while True:
            if self.live_workers == 0:
                # Spawn a replacement only when no spawned worker is
                # still on its way in.
                self._joining = [p for p in self._joining if p.is_alive()]
                if not self._joining:
                    if self._respawns >= self._respawn_budget:
                        raise ExperimentError(
                            f"sweep aborted: workers kept dying "
                            f"({self._respawns} respawns) — the "
                            f"environment is killing workers faster than "
                            f"quarantine can isolate the cause"
                        )
                    self._respawns += 1
                    self.spawn_workers(1)
            try:
                worker = await asyncio.wait_for(self._idle.get(), timeout=0.05)
            except asyncio.TimeoutError:
                continue
            if worker.alive:
                return worker

    # -- client handling -----------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        message = await recv_message_async(reader)
        if message is None:
            writer.close()
            return
        if message.get("type") != "submit":
            await send_message_async(writer, {
                "type": "error", "error_type": "WireError",
                "message": f"expected a submit message, got "
                           f"{message.get('type')!r}",
            })
            writer.close()
            return

        def point_progress(result: PointResult) -> None:
            # Sync callback from the scheduler: buffer the frame; the
            # event loop flushes it with the next await.
            writer.write(encode_frame({
                "type": "progress",
                "x": result.x,
                "ratios": dict(result.ratios),
                "failures": len(result.failures),
            }))

        def unit_progress(done: int, total: int, served: int) -> None:
            writer.write(encode_frame({
                "type": "unit_done", "done": done, "total": total,
                "served": served,
            }))

        try:
            config = _config_from_dict(message["config"])
            sweep = await self.process_sweep(
                config,
                options=options_from_dict(message.get("options")),
                failure_policy=message.get(
                    "policy", FailurePolicy.COUNT_UNSCHEDULABLE.value
                ),
                progress=point_progress,
                unit_progress=unit_progress,
            )
        except Exception as exc:  # noqa: BLE001 - reported to the submitter
            try:
                await send_message_async(writer, {
                    "type": "error",
                    "error_type": type(exc).__name__,
                    "message": str(exc),
                })
            except (ConnectionError, OSError):
                pass
        else:
            try:
                await send_message_async(writer, {
                    "type": "sweep_done",
                    "sweep": sweep_to_dict(sweep),
                })
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()

    # -- sweep processing ----------------------------------------------
    def _emit(self, name: str, **fields: object) -> None:
        if self._writer is not None:
            self._writer.emit(name, **fields)  # type: ignore[arg-type]

    async def process_sweep(
        self,
        config: ExperimentConfig,
        *,
        options: AnalysisOptions | None = None,
        failure_policy: "FailurePolicy | str" = (
            FailurePolicy.COUNT_UNSCHEDULABLE
        ),
        progress: "Callable[[PointResult], None] | None" = None,
        unit_progress: "Callable[[int, int, int], None] | None" = None,
        trace_path: "str | None" = None,
    ) -> SweepResult:
        """Run one sweep through store → dispatch → merge.

        Serialised: concurrent submits queue on the sweep lock. The
        full experiment contract of :func:`repro.experiments.runner.
        run_experiment` applies — same unit decomposition, same unit
        store, same trace schema, bit-identical results.
        """
        async with self._sweep_lock:
            try:
                return await self._process_sweep_locked(
                    config, options, _coerce_policy(failure_policy),
                    progress, unit_progress, trace_path,
                )
            finally:
                self.sweeps_done += 1
                self._sweep_finished.set()

    async def _process_sweep_locked(
        self,
        config: ExperimentConfig,
        options: AnalysisOptions | None,
        policy: FailurePolicy,
        progress: "Callable[[PointResult], None] | None",
        unit_progress: "Callable[[int, int, int], None] | None",
        trace_path: "str | None",
    ) -> SweepResult:
        sweep_id = f"s{self._next_sweep}"
        self._next_sweep += 1
        if trace_path is None and self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            # One file per *sweep*, not per config: a repeat submit of
            # the same config (store-served, hence a nearly empty
            # trace) must not clobber the cold run's full trace.
            trace_path = os.path.join(
                self.trace_dir,
                f"{config_digest(config)}.{sweep_id}.trace.jsonl",
            )
        with sweep_session(
            config,
            policy,
            jobs=self.live_workers,
            options=options,
            cache_path=self.cache_path,
            trace_path=trace_path,
            fault_plan=self.fault_plan,
            progress=progress,
        ) as scheduler:
            self._writer = scheduler.writer
            try:
                self._emit(
                    "service.start", port=self.port, workers=self.live_workers
                )
                self._emit(
                    "service.submit",
                    points=len(config.points),
                    units=scheduler.total_units,
                )

                def report_units() -> None:
                    if unit_progress is not None:
                        unit_progress(
                            scheduler.total_units - len(scheduler.pending),
                            scheduler.total_units,
                            scheduler.served,
                        )

                if scheduler.served:
                    report_units()
                dispatched = await self.dispatch(
                    scheduler, sweep_id, on_unit=report_units
                )
                self._emit(
                    "service.sweep.done",
                    served=scheduler.served,
                    dispatched=dispatched,
                )
                return scheduler.result()
            finally:
                self._writer = None

    async def dispatch(
        self,
        scheduler: UnitScheduler,
        sweep_id: str,
        on_unit: "Callable[[], None] | None" = None,
    ) -> int:
        """Run the scheduler's pending units on the workers until done.

        Returns how many units a worker evaluated. A unit implicated in
        a crash re-runs alone, so a repeat crash is unambiguous and
        innocent collateral passes. ``on_unit`` is called after the
        scheduler recorded each unit a worker finished.
        """
        self._respawns = 0
        self._respawn_budget = 4 + 2 * scheduler.total_units
        sweep_context = {
            "type": "sweep",
            "sweep": sweep_id,
            "config": message_config(scheduler.config),
            "options": options_to_dict(scheduler.options),
            "policy": scheduler.policy.value,
            "trace": scheduler.writer is not None,
        }
        dispatched = 0
        while not scheduler.done:
            batch = scheduler.suspects()[:1] or sorted(scheduler.pending)
            outcomes = await asyncio.gather(
                *(
                    self._run_unit(
                        sweep_context,
                        key,
                        scheduler.pending[key],
                        scheduler,
                        on_unit,
                    )
                    for key in batch
                ),
                return_exceptions=True,
            )
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    raise outcome
                dispatched += outcome
        return dispatched

    async def _run_unit(
        self,
        sweep_context: dict,
        key: "tuple[int, int]",
        attempt: int,
        scheduler: UnitScheduler,
        on_unit: "Callable[[], None] | None",
    ) -> bool:
        """Dispatch one unit to a worker; returns True when evaluated.

        A worker connection dying before the result frame lands is this
        unit's crash: the worker is dropped and the scheduler decides
        requeue vs. quarantine.
        """
        sweep_id = sweep_context["sweep"]
        worker = await self._acquire_worker()
        reply: "dict | None" = None
        try:
            if sweep_id not in worker.known_sweeps:
                await send_message_async(worker.writer, sweep_context)
                worker.known_sweeps.add(sweep_id)
            worker.unit = key
            await send_message_async(worker.writer, {
                "type": "unit", "sweep": sweep_id,
                "point": key[0], "unit": key[1], "attempt": attempt,
                "protocols": list(scheduler.missing(key)),
            })
            self._emit(
                "service.unit.dispatched",
                point=key[0],
                unit=key[1],
                worker=worker.id,
            )
            reply = await recv_message_async(worker.reader)
        except (ConnectionError, OSError):
            reply = None
        if reply is None or reply.get("type") != "result":
            self._drop_worker(worker)
            self._emit(
                "worker.crash",
                point=key[0],
                unit=key[1],
                attempt=attempt,
                crashes=scheduler.crash_counts.get(key, 0) + 1,
            )
            scheduler.record_crash(
                key,
                attempt,
                "WorkerCrashError",
                "worker disconnected while evaluating this task set",
            )
            return False
        worker.unit = None
        self._idle.put_nowait(worker)
        error = reply.get("error")
        if error is not None:
            message = (
                f"worker failed evaluating (point {key[0]}, set "
                f"{key[1]}): {error['type']}: {error['message']}"
            )
            if error.get("repro"):
                raise ExperimentError(message)
            if scheduler.policy is FailurePolicy.RAISE:
                # An unexpected (non-Repro) exception escaped the worker.
                raise RuntimeError(message)
            scheduler.record_crash(
                key, attempt, error["type"], error["message"]
            )
            return False
        scheduler.record_unit(key[0], unit_from_wire(reply["payload"]))
        if on_unit is not None:
            on_unit()
        return True


def message_config(config: ExperimentConfig) -> dict:
    """The wire form of a sweep config (the sweep export's form)."""
    from repro.experiments.persistence import _config_to_dict

    return _config_to_dict(config)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
async def _with_service(
    body: "Callable[[SweepService], Awaitable[_T]]",
    *,
    workers: int,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_path: "str | None",
    trace_dir: "str | None",
    fault_plan: FaultPlan | None,
) -> _T:
    service = SweepService(
        host,
        port,
        cache_path=cache_path,
        trace_dir=trace_dir,
        fault_plan=fault_plan,
    )
    await service.start()
    service.spawn_workers(workers)
    try:
        return await body(service)
    finally:
        await service.stop()


def run_local_sweep(scheduler: UnitScheduler, *, jobs: int) -> None:
    """Drive ``scheduler`` to completion on ``jobs`` local workers.

    The engine behind ``run_experiment(jobs=N)``: an unstarted service
    connects each worker over its own socketpair (nothing listens, so
    no other process can reach the fleet) and runs the same dispatch
    loop, crash accounting and respawn policy as ``repro serve``.
    The scheduler (the parent) alone reads and writes unit rows.
    """

    async def main() -> None:
        service = SweepService(fault_plan=scheduler.fault_plan)
        service._writer = scheduler.writer
        service.spawn_workers(min(jobs, len(scheduler.pending)))
        try:
            await service.dispatch(scheduler, "s0")
        finally:
            await service.stop()

    asyncio.run(main())


def run_service_sweep(
    config: ExperimentConfig,
    *,
    workers: int = 2,
    options: AnalysisOptions | None = None,
    failure_policy: "FailurePolicy | str" = FailurePolicy.COUNT_UNSCHEDULABLE,
    cache_path: "str | None" = None,
    trace_path: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    progress: "Callable[[PointResult], None] | None" = None,
) -> SweepResult:
    """One sweep through an ephemeral local service (workers included).

    The in-process backbone behind tests, benchmarks, and one-shot use:
    starts a coordinator on a free port, spawns ``workers`` local
    worker processes over the real socket transport, processes exactly
    this sweep, and tears everything down. Equivalent to ``repro
    serve`` + one ``repro submit``, minus the client socket hop.
    """

    async def body(service: SweepService) -> SweepResult:
        return await service.process_sweep(
            config,
            options=options,
            failure_policy=failure_policy,
            progress=progress,
            trace_path=trace_path,
        )

    return asyncio.run(_with_service(
        body,
        workers=workers,
        cache_path=cache_path,
        trace_dir=None,
        fault_plan=fault_plan,
    ))


def serve(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    workers: int = 2,
    cache_path: "str | None" = None,
    trace_dir: "str | None" = None,
    fault_plan: FaultPlan | None = None,
    max_sweeps: "int | None" = None,
    ready: "Callable[[int], None] | None" = None,
) -> None:
    """Run a sweep service until stopped (or ``max_sweeps`` processed).

    Binds the coordinator, spawns ``workers`` local worker processes,
    reports the bound port through ``ready`` (port 0 binds a free one),
    and serves ``repro submit`` clients. ``max_sweeps`` gives CI and
    tests a deterministic exit.
    """

    async def body(service: SweepService) -> None:
        if ready is not None:
            ready(service.port)
        if max_sweeps is not None:
            await service.wait_for_sweeps(max_sweeps)
        else:
            assert service._server is not None
            await service._server.serve_forever()

    try:
        asyncio.run(_with_service(
            body,
            workers=workers,
            host=host,
            port=port,
            cache_path=cache_path,
            trace_dir=trace_dir,
            fault_plan=fault_plan,
        ))
    except KeyboardInterrupt:
        pass
