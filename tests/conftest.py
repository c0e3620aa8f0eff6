"""Shared fixtures for the test suite, and its trace-contract hook.

The session hook wraps ``EventRecorder.emit``, ``TraceWriter.write``
and ``AnalysisCache.bump`` for the whole run. Every event a recorder
takes is validated against the catalogue as it is recorded (the writer
validates its own lines), and an invalid one fails its test and the
session. When the whole ``tests/`` directory ran and passed, the
session also fails on the gaps :func:`contract_gaps` names: catalogue
entries no test emitted and counters outside ``COUNTER_NAMES`` or
never bumped.
"""

from __future__ import annotations

import functools
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.cache import COUNTER_NAMES, AnalysisCache
from repro.errors import ObservabilityError
from repro.model.task import Task
from repro.model.taskset import TaskSet
from repro.obs.events import EVENT_NAMES, EventRecorder, TraceWriter, validate_event


def contract_gaps(emitted: set[str], bumped: set[str]) -> list[str]:
    """What a full, passing run left outside the trace contract.

    ``emitted`` holds the event names the run recorded or wrote and
    ``bumped`` the counter names passed to ``AnalysisCache.bump``.
    """
    gaps = [
        f"EVENT_NAMES entry {name!r} was emitted by no test"
        for name in sorted(set(EVENT_NAMES) - emitted)
    ]
    gaps += [
        f"counter {name!r} was bumped but is not in COUNTER_NAMES"
        for name in sorted(bumped - set(COUNTER_NAMES))
    ]
    gaps += [
        f"COUNTER_NAMES entry {name!r} was bumped by no test"
        for name in COUNTER_NAMES
        if name not in bumped
    ]
    gaps += [
        f"counter {name!r} has no 'cache.{name}' entry in EVENT_NAMES"
        for name in COUNTER_NAMES
        if f"cache.{name}" not in EVENT_NAMES
    ]
    return gaps


class _ContractHook:
    """Session-wide record of what the suite emitted and bumped."""

    def __init__(self) -> None:
        self.emitted: set[str] = set()
        self.bumped: set[str] = set()
        self.invalid: list[str] = []
        self.deselected = False
        self.finished = 0
        self.gaps: list[str] = []
        self._originals = (
            EventRecorder.emit, TraceWriter.write, AnalysisCache.bump
        )

    def install(self) -> None:
        record, write, bump = self._originals

        @functools.wraps(record)
        def checked_emit(recorder, name, **kwargs):
            record(recorder, name, **kwargs)
            event = recorder._events[-1]
            problems = validate_event(event)
            if problems:
                self.invalid.append(f"{event!r}: {'; '.join(problems)}")
                raise ObservabilityError(
                    "invalid trace event: " + "; ".join(problems)
                )
            self.emitted.add(name)

        @functools.wraps(write)
        def noted_write(writer, event, **kwargs):
            write(writer, event, **kwargs)
            self.emitted.add(event["name"])

        @functools.wraps(bump)
        def noted_bump(cache, name, amount=1):
            self.bumped.add(name)
            bump(cache, name, amount)

        EventRecorder.emit = checked_emit
        TraceWriter.write = noted_write
        AnalysisCache.bump = noted_bump

    def uninstall(self) -> None:
        EventRecorder.emit, TraceWriter.write, AnalysisCache.bump = (
            self._originals
        )


_HOOK = _ContractHook()


def pytest_sessionstart(session):
    _HOOK.install()


def pytest_deselected(items):
    _HOOK.deselected = True


def pytest_runtest_logfinish(nodeid, location):
    _HOOK.finished += 1


def pytest_sessionfinish(session, exitstatus):
    _HOOK.uninstall()
    _HOOK.gaps = [f"invalid event {entry}" for entry in _HOOK.invalid]
    tests_dir = Path(__file__).parent
    ran = {Path(str(item.path)) for item in session.items}
    full_run = (
        exitstatus == 0
        and not _HOOK.deselected
        and _HOOK.finished == len(session.items)
        and ran >= set(tests_dir.glob("test_*.py"))
    )
    if full_run:
        _HOOK.gaps += contract_gaps(_HOOK.emitted, _HOOK.bumped)
    if _HOOK.gaps:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _HOOK.gaps:
        terminalreporter.section("trace contract", red=True)
        for gap in _HOOK.gaps:
            terminalreporter.line(gap)


@pytest.fixture
def trace_contract_gaps():
    """The session hook's :func:`contract_gaps`, for testing it directly."""
    return contract_gaps


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_taskset() -> TaskSet:
    """Three tasks with memory phases, deadline-monotonic priorities."""
    return TaskSet.from_parameters(
        [
            # (name, C, l, u, T, D)
            ("hi", 1.0, 0.2, 0.2, 10.0, 8.0),
            ("mid", 2.0, 0.4, 0.4, 20.0, 14.0),
            ("lo", 4.0, 0.8, 0.8, 50.0, 40.0),
        ]
    )


@pytest.fixture
def figure1_like_taskset() -> TaskSet:
    """The Fig. 1 reconstruction (see repro.examples_support)."""
    from repro.examples_support import figure1_taskset

    return figure1_taskset()


@pytest.fixture
def single_task_set() -> TaskSet:
    return TaskSet(
        [
            Task.sporadic(
                "solo",
                exec_time=3.0,
                period=20.0,
                deadline=15.0,
                copy_in=1.0,
                copy_out=0.5,
                priority=0,
            )
        ]
    )


@pytest.fixture
def tear_rows():
    """Garble stored unit-row payloads in place, leaving the sha column.

    ``tear_rows(path)`` garbles every row, ``tear_rows(path, digests)``
    only the named ones. ``mode="torn"`` keeps a 9-byte prefix of the
    payload (a torn write); ``mode="garbage"`` replaces it with
    non-JSON bytes. Either way the row no longer matches its sha256.
    """
    import sqlite3

    def tear(path, digests=None, mode="torn"):
        garbled = {
            "torn": "substr(payload, 1, 9)",
            "garbage": "char(0) || 'garbage' || char(0) || substr(payload, 1, 8)",
        }[mode]
        conn = sqlite3.connect(path)
        with conn:
            if digests is None:
                conn.execute(f"UPDATE entries SET payload = {garbled}")
            for digest in digests or ():
                conn.execute(
                    f"UPDATE entries SET payload = {garbled} WHERE digest = ?",
                    (digest,),
                )
        conn.close()

    return tear
