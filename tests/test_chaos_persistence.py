"""Chaos: torn unit rows, fs errors, durable atomic sweep exports.

The unit rows of the persistent store are a sweep's only durable
state. A row whose payload bytes were garbled — a torn write, bit rot —
fails its sha256 on read, is dropped, counted as
``unit_store.corrupt`` on its unit, and re-solved; a rerun on the
damaged store converges to the fault-free result.
``fs.error`` simulates transient filesystem failures under the sweep
export's durable temp-and-rename write.
"""

import dataclasses
import os
import sqlite3
import stat

import pytest

from repro.analysis.store import SCHEMA_VERSION, PersistentStore
from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, SweepPoint, run_experiment
from repro.experiments.persistence import load_sweep, save_sweep
from repro.experiments.units import unit_digest
from repro.faults import FaultPlan, FaultSpec, injecting
from repro.generator.taskset_gen import GenerationConfig
from repro.obs import events as obs
from repro.obs import read_trace

POLICY = "count_unschedulable"


@pytest.fixture
def config():
    points = tuple(
        SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
        for u in (0.2, 0.4)
    )
    return ExperimentConfig(
        name="chaos-store",
        x_label="U",
        points=points,
        sets_per_point=2,
        seed=11,
        method="closed_form",
    )


def _identical(a, b):
    assert [p.x for p in a.points] == [p.x for p in b.points]
    for pa, pb in zip(a.points, b.points):
        assert pa.ratios == pb.ratios
        assert pa.failures == pb.failures
        assert pa.sets_evaluated == pb.sets_evaluated


def _served(result, counter="unit_store.hits"):
    return [dict(p.analysis_stats).get(counter, 0) for p in result.points]


class TestDurableWrites:
    def test_save_fsyncs_file_and_directory(
        self, config, tmp_path, monkeypatch
    ):
        result = run_experiment(config)
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            info = os.fstat(fd)
            kind = "dir" if stat.S_ISDIR(info.st_mode) else "file"
            calls.append(("fsync", kind, info.st_ino))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", os.stat(src).st_ino, dst))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        target = tmp_path / "sweep.json"
        save_sweep(result, target)
        # fsync(temp) -> rename over the target -> fsync(directory):
        # the renamed inode is the one synced, and the directory entry
        # is synced after the rename.
        (_, _, temp_inode), _, _ = calls
        assert calls == [
            ("fsync", "file", temp_inode),
            ("replace", temp_inode, target),
            ("fsync", "dir", os.stat(tmp_path).st_ino),
        ]
        assert os.stat(target).st_ino == temp_inode

    def test_transient_fs_error_is_retried(self, config, tmp_path):
        result = run_experiment(config)
        plan = FaultPlan(
            specs=(FaultSpec(site="fs.error", times=2),), name="flaky-fs"
        )
        path = tmp_path / "sweep.json"
        recorder = obs.EventRecorder()
        with injecting(plan), obs.recording(recorder):
            save_sweep(result, path)
        assert load_sweep(path).points == result.points
        retries = [
            e for e in recorder.events if e["name"] == "checkpoint.retry"
        ]
        assert len(retries) == 2

    def test_persistent_fs_error_fails_loudly(self, config, tmp_path):
        result = run_experiment(config)
        plan = FaultPlan(
            specs=(FaultSpec(site="fs.error", times=None),), name="dead-fs"
        )
        with injecting(plan):
            with pytest.raises(ExperimentError, match="cannot write"):
                save_sweep(result, tmp_path / "sweep.json")


class TestTornWrites:
    def test_corrupt_point_resolves_only_that_point(
        self, config, tmp_path, tear_rows
    ):
        baseline = run_experiment(config)
        for jobs in (1, 2):
            path = str(tmp_path / f"store-{jobs}.db")
            run_experiment(config, cache_path=path)
            # Tear the row of (point 1, set 0): every other row stays
            # pristine, that one no longer matches its sha256.
            tear_rows(path, [unit_digest(config, 1, 0, None, POLICY)])
            trace = tmp_path / f"resume-{jobs}.jsonl"
            resumed = run_experiment(
                config, jobs=jobs, cache_path=path, trace_path=str(trace)
            )
            _identical(resumed, baseline)
            # Only the damaged unit was re-solved, and its stats say
            # why...
            assert _served(resumed) == [2, 1]
            assert _served(resumed, "unit_store.corrupt") == [0, 1]
            (torn,) = [
                e for e in read_trace(trace)
                if e["name"] == "cache.unit_store.corrupt"
            ]
            assert (torn["point"], torn["unit"]) == (1, 0)
            verdicts = {
                (e["point"], e["unit"])
                for e in read_trace(trace)
                if e["name"] == "protocol.verdict"
            }
            assert verdicts == {(1, 0)}
            # ...and its row was written back whole.
            again = run_experiment(config, cache_path=path)
            assert _served(again) == [2, 2]
            assert _served(again, "unit_store.corrupt") == [0, 0]
            _identical(again, baseline)

    def test_truncated_target_resumes_from_scratch(
        self, config, tmp_path, tear_rows
    ):
        baseline = run_experiment(config)
        path = str(tmp_path / "store.db")
        run_experiment(config, cache_path=path)
        tear_rows(path)
        store = PersistentStore(path)
        assert store.fetch(unit_digest(config, 0, 0, None, POLICY)) == (
            None,
            True,
        )
        store.close()
        resumed = run_experiment(config, cache_path=path)
        _identical(resumed, baseline)
        assert _served(resumed) == [0, 0]


class TestDigestVerification:
    def test_wrong_config_digest_never_healed(self, config, tmp_path):
        # Rows of another configuration are neither served nor
        # dropped: a different digest is another unit, not damage.
        path = str(tmp_path / "store.db")
        run_experiment(config, cache_path=path)
        other = dataclasses.replace(config, seed=999)
        result = run_experiment(other, cache_path=path)
        assert _served(result) == [0, 0]
        _identical(result, run_experiment(other))
        store = PersistentStore(path)
        assert store.fetch(unit_digest(config, 0, 0, None, POLICY))[0] is not None
        assert len(store) == 2 * 4
        store.close()

    def test_unsupported_version_rejected(self, config, tmp_path):
        path = str(tmp_path / "store.db")
        first = run_experiment(config, cache_path=path)
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION - 1),),
            )
        conn.close()
        # A store written under another schema is discarded on open:
        # nothing is served, everything is re-solved identically.
        again = run_experiment(config, cache_path=path)
        assert _served(again) == [0, 0]
        _identical(again, first)
