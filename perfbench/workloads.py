"""The three workloads, driven through the public ``repro`` API.

Each workload prepares its fixtures once per run, sets up (restores a
store snapshot, or starts the sweep service), answers timed requests
from a single closed-loop client, and checks every result against a
reference. ``request`` returns the timed window and the sweep result;
anything outside the window (fresh store paths, snapshot restores) is
not timed.

The two MILP-backed workloads run fixed task-set corpora (generation
seed 2020) whatever ``--seed`` says. The MILP cost of one task set
spans four orders of magnitude — from 1 ms to 143 s for single fig2a
units at U=0.5 — so a corpus redrawn per seed makes a run's time a
draw from that tail, and the spread between runs would swamp any bound.
``served_repeat`` has no solver on its timed path and draws its task
sets from ``--seed``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import signal
import time
from pathlib import Path

from perfbench import gate

#: Generation seed of the fixed corpora (the paper-reproduction default).
CORPUS_SEED = 2020
PAPER_PROTOCOLS = ("nps_carry", "wasly", "proposed")
ZOO_PROTOCOLS = ("threshold", "regulated")
REFERENCE = Path(__file__).resolve().parent / "reference" / "cold_fig2a.json"


def _inset(name: str, lo: float, hi: float, sets: int, seed: int, **changes):
    from repro.experiments import figure2_config

    base = figure2_config(name, sets_per_point=sets, seed=seed)
    points = tuple(p for p in base.points if lo - 1e-9 <= p.x <= hi + 1e-9)
    return dataclasses.replace(base, points=points, **changes)


def cold_config():
    """fig2a at U=0.2-0.5, 4 sets per point, the paper's three protocols."""
    return _inset("fig2a", 0.2, 0.5, 4, CORPUS_SEED)


def _remove_store(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


class ColdFig2a:
    """A new figure: a cold MILP sweep into a fresh, empty persistent store."""

    name = "cold_fig2a"
    jobs = 1
    #: Untimed requests before the timed loop (a cold sweep has nothing to warm).
    warmup = 0

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.config = cold_config()
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.notes: dict[str, str] = {}

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def request(self, index: int):
        from repro.experiments import run_experiment

        path = self.work / f"cold-{index}.db"
        _remove_store(path)
        start = time.perf_counter()
        sweep = run_experiment(self.config, jobs=1, cache_path=str(path))
        end = time.perf_counter()
        _remove_store(path)
        return start, end, sweep

    def check(self, sweep) -> list[str]:
        if self.reference["config"] != gate.config_key(self.config):
            return [f"{self.name}: {REFERENCE.name} was recorded for another corpus"]
        return gate.compare_tables(self.reference, gate.verdict_table(sweep), self.name)

    def teardown(self) -> None:
        pass


class ZooAddProtocols:
    """Extend a finished 3-protocol sweep with the two zoo protocols."""

    name = "zoo_add_protocols"
    jobs = 2
    warmup = 1

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.populate_config = _inset("fig2c", 0.3, 0.9, 8, CORPUS_SEED)
        self.config = dataclasses.replace(
            self.populate_config, protocols=PAPER_PROTOCOLS + ZOO_PROTOCOLS
        )
        self.snapshot = work / "zoo-snapshot.db"
        self.store = work / "zoo-request.db"
        self.notes: dict[str, str] = {}

    def prepare(self) -> None:
        """Populate the store once, snapshot it, and compute both references."""
        from repro.experiments import run_experiment

        populated = self.work / "zoo-populate.db"
        start = time.perf_counter()
        sweep = run_experiment(self.populate_config, jobs=2, cache_path=str(populated))
        self.notes["populate_s"] = f"{time.perf_counter() - start:.3f}"
        self.old_reference = gate.verdict_table(sweep)
        rows = gate.snapshot(populated, self.snapshot)
        _remove_store(populated)
        self.notes["snapshot_rows"] = str(rows)
        storeless = run_experiment(
            dataclasses.replace(self.populate_config, protocols=ZOO_PROTOCOLS), jobs=1
        )
        self.new_reference = gate.verdict_table(storeless)

    def setup(self) -> None:
        gate.snapshot(self.snapshot, self.store)

    def request(self, index: int):
        from repro.experiments import run_experiment

        start = time.perf_counter()
        sweep = run_experiment(self.config, jobs=2, cache_path=str(self.store))
        end = time.perf_counter()
        self.setup()
        return start, end, sweep

    def check(self, sweep) -> list[str]:
        return gate.compare_tables(
            self.old_reference,
            gate.verdict_table(sweep, PAPER_PROTOCOLS),
            f"{self.name} (paper columns vs populate)",
        ) + gate.compare_tables(
            self.new_reference,
            gate.verdict_table(sweep, ZOO_PROTOCOLS),
            f"{self.name} (zoo columns vs store-less run)",
        )

    def teardown(self) -> None:
        _remove_store(self.store)


def _service_main(cache_path: str, ports) -> None:
    """Sweep-service process: ``repro.service.serve`` with two workers."""
    from repro.service import serve

    serve(workers=2, cache_path=cache_path, ready=ports.put)


class ServedRepeat:
    """Repeat submits that the service's unit store answers entirely."""

    name = "served_repeat"
    jobs = 2
    warmup = 1
    host = "127.0.0.1"

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.config = _inset(
            "fig2e", 0.0, 1.0, 40, seed, method="closed_form",
            protocols=PAPER_PROTOCOLS + ZOO_PROTOCOLS,
        )
        self.units = len(self.config.points) * self.config.sets_per_point
        self.process = None
        self.starts = 0
        self.notes: dict[str, str] = {"units": str(self.units)}

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        """Start the service on a fresh store and populate it with one submit."""
        from repro.service import submit_sweep

        self.starts += 1
        store = self.work / f"served-{self.starts}.db"
        # Forked, as ``repro serve`` forks its own workers: the service
        # inherits the tracing wrappers of a traced run, and this
        # process runs no threads that a fork could break.
        context = multiprocessing.get_context("fork")
        ports = context.Queue()
        self.process = context.Process(target=_service_main, args=(str(store), ports))
        self.process.start()
        try:
            self.port = ports.get(timeout=60)
        finally:
            ports.close()
            ports.join_thread()
        populated = submit_sweep(self.host, self.port, self.config)
        self.expected = gate.verdict_table(populated)

    def request(self, index: int):
        from repro.service import submit_sweep

        start = time.perf_counter()
        sweep = submit_sweep(self.host, self.port, self.config)
        end = time.perf_counter()
        return start, end, sweep

    def check(self, sweep) -> list[str]:
        problems = gate.compare_tables(
            self.expected, gate.verdict_table(sweep), f"{self.name} (vs populating submit)"
        )
        served = gate.counts(sweep)["count.unit_store_hits"]
        if served != self.units:
            problems.append(f"{self.name}: {served} of {self.units} units served from the store")
        return problems

    def teardown(self) -> None:
        """Stop the service (SIGINT runs its shutdown path) and wait for it."""
        process, self.process = self.process, None
        if process is None:
            return
        if process.is_alive():
            os.kill(process.pid, signal.SIGINT)
        process.join(timeout=30)
        if process.is_alive():
            process.kill()
            process.join(timeout=10)
        process.close()


WORKLOADS = {cls.name: cls for cls in (ColdFig2a, ZooAddProtocols, ServedRepeat)}
