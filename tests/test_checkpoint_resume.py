"""Sweep resume from the unit store: rows, keying, bit-identical ratios.

An interrupted sweep resumes by rerunning it on the same ``cache_path``:
every finished (point, task set) unit is one row in the persistent
store, and a rerun evaluates only the units without one.
"""

import dataclasses

import pytest

import repro.experiments.runner as runner_module
from repro.analysis.store import PersistentStore
from repro.experiments import (
    ExperimentConfig,
    SweepPoint,
    run_experiment,
)
from repro.experiments.persistence import load_sweep, save_sweep
from repro.experiments.report import aggregate_analysis_stats
from repro.experiments.runner import SweepResult
from repro.experiments.units import unit_digest
from repro.generator.taskset_gen import GenerationConfig

POLICY = "count_unschedulable"


@pytest.fixture
def config():
    points = tuple(
        SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
        for u in (0.2, 0.4, 0.6)
    )
    return ExperimentConfig(
        name="mini",
        x_label="U",
        points=points,
        sets_per_point=3,
        seed=7,
        method="closed_form",
    )


def _flaky_wasly(monkeypatch):
    """Make every ``wasly`` evaluation fail with a SolverError."""
    import repro.experiments.units as units_module
    from repro.errors import SolverError

    original = units_module.is_schedulable

    def flaky(taskset, protocol, **kwargs):
        if protocol == "wasly":
            raise SolverError("boom")
        return original(taskset, protocol, **kwargs)

    monkeypatch.setattr(units_module, "is_schedulable", flaky)


def _counting_evaluate(monkeypatch, calls, stop_at=None):
    """Record the (x, set) of every evaluated unit; optionally "kill"
    the sweep when it reaches a unit of point ``stop_at``."""
    from repro.experiments.units import _evaluate_unit as original

    def counting(point, config, seed, index, *args, **kwargs):
        calls.append((point.x, index))
        if point.x == stop_at:
            raise KeyboardInterrupt  # simulate a mid-sweep kill
        return original(point, config, seed, index, *args, **kwargs)

    monkeypatch.setattr(runner_module, "_evaluate_unit", counting)


class TestCheckpointFile:
    """The unit row: one per (point, task set), verified on read."""

    def test_roundtrip_including_failures(self, tmp_path, config, monkeypatch):
        _flaky_wasly(monkeypatch)
        path = str(tmp_path / "store.db")
        first = run_experiment(config, cache_path=path)
        assert first.failures
        store = PersistentStore(path)
        value, corrupt = store.fetch(unit_digest(config, 0, 1, None, POLICY))
        assert not corrupt
        tag, row = value
        assert tag == "unit"
        assert set(row["verdicts"]) == set(config.protocols)
        assert [f["protocol"] for f in row["failures"]] == ["wasly"]
        store.close()
        # Served back from the rows, the ledger is the same records.
        second = run_experiment(config, cache_path=path)
        assert second.failures == first.failures
        assert [p.ratios for p in second.points] == [
            p.ratios for p in first.points
        ]

    def test_atomic_write_leaves_no_temp_file(self, tmp_path, config):
        # The sweep export (the one JSON format left) is written
        # temp-and-rename; nothing but the target remains.
        path = tmp_path / "sweep.json"
        save_sweep(run_experiment(config), path)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_digest_mismatch_is_rejected(self, tmp_path, config, monkeypatch):
        path = str(tmp_path / "store.db")
        run_experiment(config, cache_path=path)
        other = dataclasses.replace(config, seed=99)
        assert unit_digest(other, 0, 0, None, POLICY) != unit_digest(
            config, 0, 0, None, POLICY
        )
        calls = []
        _counting_evaluate(monkeypatch, calls)
        result = run_experiment(other, cache_path=path)
        # No row of the other seed answers anything.
        assert len(calls) == len(config.points) * config.sets_per_point
        assert aggregate_analysis_stats(result.points).get(
            "unit_store.hits", 0
        ) == 0

    def test_corrupt_json_is_rejected(self, tmp_path, config):
        path = str(tmp_path / "store.db")
        baseline = run_experiment(config, cache_path=path)
        digest = unit_digest(config, 1, 0, None, POLICY)
        store = PersistentStore(path)
        conn = store._connect()
        conn.execute(
            "UPDATE entries SET payload = '{not json' WHERE digest = ?",
            (digest,),
        )
        conn.commit()
        assert store.fetch(digest) == (None, True)  # detected + dropped
        store.close()
        again = run_experiment(config, cache_path=path)
        assert [p.ratios for p in again.points] == [
            p.ratios for p in baseline.points
        ]

    def test_missing_file(self, tmp_path, config):
        path = tmp_path / "absent" / "store.db"
        assert not path.exists()
        result = run_experiment(config, cache_path=str(path))
        assert path.exists()
        assert aggregate_analysis_stats(result.points).get(
            "unit_store.hits", 0
        ) == 0
        assert len(PersistentStore(path)) == (
            len(config.points) * config.sets_per_point
        )


class TestResume:
    def test_interrupted_sweep_resumes_bit_identical(
        self, tmp_path, config, monkeypatch
    ):
        baseline = run_experiment(config)
        path = str(tmp_path / "store.db")
        sets = config.sets_per_point
        calls = []
        _counting_evaluate(monkeypatch, calls, stop_at=0.4)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, cache_path=path)
        assert calls == [(0.2, i) for i in range(sets)] + [(0.4, 0)]
        # Point 0's units were stored before the kill.
        assert len(PersistentStore(path)) == sets

        calls.clear()
        _counting_evaluate(monkeypatch, calls)
        resumed = run_experiment(config, cache_path=path)
        # Only the unstored units were evaluated.
        assert calls == [(0.4, i) for i in range(sets)] + [
            (0.6, i) for i in range(sets)
        ]
        for got, expected in zip(resumed.points, baseline.points):
            assert got.x == expected.x
            assert got.ratios == expected.ratios  # bit-identical floats
            assert got.failures == expected.failures
            assert got.sets_evaluated == expected.sets_evaluated
        assert dict(resumed.points[0].analysis_stats)["unit_store.hits"] == sets

    def test_completed_checkpoint_reruns_nothing(self, tmp_path, config, monkeypatch):
        path = str(tmp_path / "store.db")
        first = run_experiment(config, cache_path=path)

        def exploding_evaluate(*args, **kwargs):
            raise AssertionError("no unit should be re-evaluated")

        monkeypatch.setattr(runner_module, "_evaluate_unit", exploding_evaluate)
        second = run_experiment(config, cache_path=path)
        for got, expected in zip(second.points, first.points):
            assert got.ratios == expected.ratios
            stats = dict(got.analysis_stats)
            assert stats.pop("unit_store.hits") == config.sets_per_point
            assert not any(stats.values())


class TestSweepSerializationWithFailures:
    def test_sweep_roundtrip_keeps_ledger(self, tmp_path, config, monkeypatch):
        _flaky_wasly(monkeypatch)
        result = run_experiment(config)
        assert result.failures

        path = tmp_path / "sweep.json"
        save_sweep(result, path)
        loaded = load_sweep(path)
        assert isinstance(loaded, SweepResult)
        assert loaded.failures == result.failures
        assert [p.ratios for p in loaded.points] == [
            p.ratios for p in result.points
        ]

    def test_legacy_payload_without_failures_loads(self, tmp_path, config):
        result = run_experiment(config)
        from repro.experiments.persistence import sweep_to_dict, sweep_from_dict

        payload = sweep_to_dict(result)
        for point in payload["points"]:
            point.pop("failures", None)
        loaded = sweep_from_dict(payload)
        assert loaded.points[0].failures == ()

