"""Sweep-service worker: a synchronous unit-evaluation loop.

A worker is one OS process holding one socket to the coordinator —
a TCP connection for ``repro serve`` workers, one end of a
``socket.socketpair()`` for the local fleet behind
``run_experiment(jobs=N)``. It announces itself (``hello``), receives
the run context (``welcome``: the fault plan), then
loops: receive a ``unit`` message naming the protocols still to
evaluate (the parent serves the rest from the unit store), evaluate it
through
:func:`repro.experiments.runner._worker_evaluate` (fresh per-unit
analysis-cache scope, per-unit fault-injection scope, buffered trace
events), and send the ``result`` frame back. Sweep configs travel once
per (worker, sweep) in a ``sweep`` frame and are cached by id, so
steady-state unit frames are a few dozen bytes.

A worker holds at most one unit, so its socket names the unit it dies
on: an injected ``worker.death`` (``exit`` mode) calls ``os._exit``
mid-unit, the socket closes with the process, and the coordinator
counts the loss as a crash of exactly that unit — requeue with an
incremented attempt, solo re-run, quarantine. The
``service.disconnect`` fault site additionally models a *network*
failure: the worker drops its connection on the way into a unit and
exits without evaluating anything.

Workers never open the store or write trace files — they ship
buffered events and counters on the result frame and the coordinator
(the single reader and writer of both) persists everything. Every
piece of run context crosses as a JSON frame, so no connection or file
handle can reach a worker.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import socket
from contextlib import nullcontext

from repro.analysis.interface import AnalysisOptions, RegulationConfig
from repro.errors import ReproError
from repro.experiments.persistence import _config_from_dict
from repro.experiments.runner import _worker_evaluate
from repro.experiments.units import unit_to_wire
from repro.faults import injection as faults
from repro.faults.plan import FaultPlan
from repro.service.wire import recv_message, send_message


def options_to_dict(options: "AnalysisOptions | None") -> "dict | None":
    """JSON-safe form of :class:`AnalysisOptions` for the wire."""
    if options is None:
        return None
    return dataclasses.asdict(options)


def options_from_dict(raw: "dict | None") -> "AnalysisOptions | None":
    """Rebuild :class:`AnalysisOptions` from :func:`options_to_dict`.

    The structured protocol knobs are re-normalised to their canonical
    in-memory shapes (tuples, :class:`RegulationConfig`): the JSON wire
    collapses tuples to lists, and a reconstructed options object must
    ``repr`` identically to a locally-built one — unit digests (and so
    the store's served-unit tier) hash that ``repr``.
    """
    if raw is None:
        return None
    fields = dict(raw)
    thresholds = fields.pop("preemption_thresholds", None)
    if thresholds is not None:
        thresholds = tuple(
            (str(name), int(theta)) for name, theta in thresholds
        )
    regulation = fields.pop("regulation", None)
    if regulation is not None:
        regulation = RegulationConfig(**regulation)
    return AnalysisOptions(
        **fields,
        preemption_thresholds=thresholds,
        regulation=regulation,
    )


def _check_disconnect(
    plan: "FaultPlan | None", point: int, unit: int, attempt: int
) -> bool:
    """Whether an injected ``service.disconnect`` fires for this unit."""
    if plan is None:
        return False
    with faults.injecting(plan, point=point, unit=unit, attempt=attempt):
        return faults.fire("service.disconnect") is not None


def worker_main(host: str, port: int) -> None:
    """Connect to the coordinator at ``host:port`` and serve units.

    Process entry point of ``repro serve`` workers (see
    :func:`spawn_worker`).
    """
    serve_socket(socket.create_connection((host, port)))


def serve_socket(sock: socket.socket) -> None:
    """Evaluate units arriving on ``sock`` until told to stop.

    Exits when the coordinator sends ``shutdown``, closes the
    connection, or an injected fault drops/kills this worker; the
    socket is closed on the way out.
    """
    try:
        send_message(sock, {"type": "hello", "role": "worker",
                            "pid": os.getpid()})
        welcome = recv_message(sock)
        if welcome is None or welcome.get("type") != "welcome":
            return
        plan_raw = welcome.get("fault_plan")
        fault_plan = (
            FaultPlan.from_dict(plan_raw) if plan_raw is not None else None
        )
        run_scope = (
            faults.injecting(fault_plan)
            if fault_plan is not None
            else nullcontext()
        )
        sweeps: dict[str, dict] = {}
        with run_scope:
            while True:
                message = recv_message(sock)
                if message is None or message.get("type") == "shutdown":
                    return
                if message["type"] == "sweep":
                    sweeps[message["sweep"]] = {
                        "config": _config_from_dict(message["config"]),
                        "options": options_from_dict(message.get("options")),
                        "policy": message["policy"],
                        "trace": bool(message.get("trace", False)),
                    }
                    continue
                if message["type"] != "unit":
                    continue
                context = sweeps[message["sweep"]]
                point = int(message["point"])
                unit = int(message["unit"])
                attempt = int(message["attempt"])
                if _check_disconnect(fault_plan, point, unit, attempt):
                    # Simulated network partition: drop the connection
                    # without a result and die. The coordinator's
                    # connection-loss path must requeue the unit.
                    sock.close()
                    os._exit(70)
                try:
                    result = _worker_evaluate(
                        context["config"],
                        point,
                        unit,
                        context["options"],
                        context["policy"],
                        context["trace"],
                        fault_plan,
                        attempt,
                        tuple(message["protocols"]),
                    )
                except ReproError as exc:
                    send_message(sock, {
                        "type": "result", "point": point, "unit": unit,
                        "attempt": attempt,
                        "error": {"type": type(exc).__name__,
                                  "message": str(exc), "repro": True},
                    })
                except Exception as exc:  # noqa: BLE001 - ledgered upstream
                    send_message(sock, {
                        "type": "result", "point": point, "unit": unit,
                        "attempt": attempt,
                        "error": {"type": type(exc).__name__,
                                  "message": str(exc), "repro": False},
                    })
                else:
                    send_message(sock, {
                        "type": "result", "point": point, "unit": unit,
                        "attempt": attempt,
                        "payload": unit_to_wire(result),
                    })
    finally:
        try:
            sock.close()
        except OSError:
            pass


def spawn_worker(host: str, port: int) -> multiprocessing.Process:
    """Start one local worker process connected to ``host:port``."""
    process = multiprocessing.Process(
        target=worker_main, args=(host, port), daemon=True
    )
    process.start()
    return process


def spawn_local_worker() -> "tuple[multiprocessing.Process, socket.socket]":
    """Start one worker process over a private socketpair.

    Returns the process and the coordinator's end of the pair. No
    listener is opened, so no other local process can reach the
    worker; the child's end is closed in the parent so that the
    worker's death reads as end-of-stream on the returned socket.
    """
    parent, child = socket.socketpair()
    process = multiprocessing.Process(
        target=_serve_pair, args=(child, parent), daemon=True
    )
    process.start()
    child.close()
    return process, parent


def _serve_pair(sock: socket.socket, peer: socket.socket) -> None:
    """Socketpair worker entry point: serve ``sock``.

    A forked child inherits the coordinator's end of its own pair;
    closing that copy first is what lets the worker read end-of-stream,
    and exit, when the coordinator goes away without a ``shutdown``.
    """
    peer.close()
    serve_socket(sock)
