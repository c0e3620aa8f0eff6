"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.model.task import Task
from repro.model.taskset import TaskSet


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
