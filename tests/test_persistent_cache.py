"""The unit store: row semantics, corruption, identity.

The on-disk sqlite store (:mod:`repro.analysis.store`) keeps one row
per finished (point, task set) unit and must be exactly as trustworthy
as re-evaluating: upserts converge under concurrent writers, corrupted
rows are detected, counted and re-evaluated (never trusted), a schema
bump discards the whole store, and — the acceptance bar — sweeps
produce bit-identical verdicts with the store disabled, cold,
pre-populated, sequential, and under ``--jobs N``.
"""

import dataclasses
import sqlite3
from concurrent import futures

import pytest

from repro.analysis.store import SCHEMA_VERSION, PersistentStore
from repro.experiments import run_experiment
from repro.experiments.config import figure2_config
from repro.experiments.report import aggregate_analysis_stats
from repro.experiments.units import unit_digest

FAILURE = {
    "x": 0.30000000000000004,
    "protocol": "c",
    "seed": 2022,
    "taskset_index": 1,
    "taskset_digest": "abc123",
    "error_type": "SolverError",
    "message": "infeasible",
    "degradation": None,
}
ROW_2 = ("unit", {"verdicts": {"a": [1, 1], "b": [0, 1]}, "failures": []})
ROW_3 = (
    "unit",
    {"verdicts": {"a": [1, 1], "b": [0, 1], "c": [0, 1]}, "failures": [FAILURE]},
)


def _reduced(inset: str = "fig2a", sets: int = 2, step: slice = slice(2, 5, 2)):
    config = figure2_config(inset, sets_per_point=sets, seed=2020)
    return dataclasses.replace(config, points=config.points[step])


def _units(config) -> int:
    return len(config.points) * config.sets_per_point


def _verdicts_identical(a, b) -> None:
    assert [p.x for p in a.points] == [p.x for p in b.points]
    for pa, pb in zip(a.points, b.points):
        assert pa.ratios == pb.ratios
        assert pa.failures == pb.failures
        assert pa.sets_evaluated == pb.sets_evaluated


class TestStoreSemantics:
    def test_round_trip_is_exact(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("u", ROW_3)
        assert store.fetch("u") == (ROW_3, False)
        assert store.fetch_many(["u", "absent"]) == {"u": ROW_3}

    def test_missing_digest_is_a_clean_miss(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        assert store.fetch("absent") == (None, False)

    def test_schema_version_mismatch_discards_the_store(self, tmp_path):
        path = tmp_path / "c.sqlite"
        store = PersistentStore(path)
        store.store("u", ROW_2)
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        conn.close()
        reopened = PersistentStore(path)
        assert len(reopened) == 0
        assert reopened.stats()["schema_version"] == SCHEMA_VERSION

    def test_stats_reports_another_version_without_discarding(self, tmp_path):
        # ``repro cache stats`` must describe the file as it is: a
        # store written under another schema keeps its rows and its
        # version until a sweep, gc or clear opens it.
        path = tmp_path / "c.sqlite"
        store = PersistentStore(path)
        store.store("u", ROW_2)
        store.store("v", ROW_3)
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION - 1),),
            )
        conn.close()
        stats = PersistentStore(path).stats()
        assert stats["schema_version"] == SCHEMA_VERSION - 1
        assert stats["entries"] == 2
        with sqlite3.connect(path) as conn:
            assert conn.execute("SELECT COUNT(*) FROM entries").fetchone() == (2,)
            assert conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone() == (str(SCHEMA_VERSION - 1),)
        conn.close()

    def test_gc_keeps_the_most_recently_written(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        for i in range(5):
            store.store(f"d{i}", ROW_2)
        assert store.gc(keep=2) == 3
        assert sorted(store.digests()) == ["d3", "d4"]

    def test_clear_empties_the_store(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("u", ROW_2)
        assert store.clear() == 1
        assert len(store) == 0

    def test_created_subquery_uses_its_index(self, tmp_path):
        # Every upsert reads MAX(created); unindexed, that scans the
        # whole table and upserts slow down as the store grows.
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("u", ROW_2)
        plan = store._connect().execute(
            "EXPLAIN QUERY PLAN"
            " SELECT COALESCE(MAX(created), 0) + 1 FROM entries"
        ).fetchall()
        assert [row[-1] for row in plan] == [
            "SEARCH entries USING COVERING INDEX entries_created"
        ]

    def test_unit_rows_grow_by_protocol_count(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("u", ROW_3)
        store.store("u", ROW_2)  # fewer protocols never replace more
        assert store.fetch("u") == (ROW_3, False)
        store.store("v", ROW_2)
        store.store("v", ROW_3)
        assert store.fetch("v") == (ROW_3, False)

    def test_stats_count_rows(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("u", ROW_2)
        store.store("v", ROW_3)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["file_bytes"] > 0


def _hammer(path: str, digest: str, first, second, rounds: int = 20) -> None:
    """Worker body: upsert one digest with both rows, many times."""
    store = PersistentStore(path)
    for _ in range(rounds):
        store.store(digest, first)
        store.store(digest, second)
    store.close()


class TestConcurrentWriters:
    def test_racing_upserts_converge_to_the_wider_row(self, tmp_path):
        # Two processes hammer the same digest with a 2-protocol and a
        # 3-protocol row in opposite orders; the store must end with
        # exactly one row, the 3-protocol one, whatever the interleaving.
        path = str(tmp_path / "c.sqlite")
        with futures.ProcessPoolExecutor(max_workers=2) as pool:
            done = [
                pool.submit(_hammer, path, "shared", ROW_2, ROW_3),
                pool.submit(_hammer, path, "shared", ROW_3, ROW_2),
            ]
            for f in done:
                f.result(timeout=120)
        store = PersistentStore(path)
        assert len(store) == 1
        assert store.fetch("shared") == (ROW_3, False)


class TestCorruption:
    @pytest.mark.parametrize("mode", ["garbage", "torn"])
    def test_garbled_row_is_detected_dropped_and_never_served(
        self, tmp_path, tear_rows, mode
    ):
        path = tmp_path / "c.sqlite"
        store = PersistentStore(path)
        store.store("u", ROW_3)
        store.store("v", ROW_2)
        tear_rows(path, ["u"], mode=mode)
        assert store.fetch_many(["u", "v"]) == {"u": None, "v": ROW_2}
        assert store.fetch("u") == (None, False)  # row really is gone
        assert store.fetch("v") == (ROW_2, False)

    def test_sweep_heals_a_fully_corrupted_store(self, tmp_path, tear_rows):
        # Every row of the first cached run is garbled; the next run
        # must detect each bad row, re-evaluate its unit, count the
        # loss on that unit's stats, and still produce the store-less
        # verdicts. The run after that is served by the clean rows.
        config = _reduced(step=slice(2, 3))
        db = str(tmp_path / "c.sqlite")
        baseline = run_experiment(config)
        run_experiment(config, cache_path=db)
        tear_rows(db)
        healing = run_experiment(config, cache_path=db)
        _verdicts_identical(baseline, healing)
        stats = aggregate_analysis_stats(healing.points)
        assert stats["unit_store.corrupt"] == _units(config)
        assert stats["unit_store.hits"] == 0
        healed = run_experiment(config, cache_path=db)
        _verdicts_identical(baseline, healed)
        stats = dict(aggregate_analysis_stats(healed.points))
        assert stats.pop("unit_store.hits") == _units(config)
        assert not any(stats.values())  # nothing corrupt, nothing solved


@pytest.fixture(scope="module")
def cache_matrix(tmp_path_factory):
    """One reduced sweep run under every store configuration.

    Module-scoped: the runs share the work, and later runs reuse the
    store earlier runs populated (that reuse *is* the scenario).
    """
    config = _reduced()
    root = tmp_path_factory.mktemp("persistent-cache")
    seq_db = root / "seq.sqlite"
    par_db = root / "par.sqlite"
    runs = {
        "baseline": run_experiment(config),
        "cold": run_experiment(config, cache_path=str(seq_db)),
        "warm": run_experiment(config, cache_path=str(seq_db)),
        "parallel_cold": run_experiment(config, jobs=2, cache_path=str(par_db)),
        "parallel_warm": run_experiment(config, jobs=2, cache_path=str(seq_db)),
    }
    return runs, seq_db, par_db


class TestBitIdentityAcrossCacheConfigs:
    """Tentpole acceptance: the store may never change a verdict."""

    def test_cold_run_matches_the_cacheless_baseline_exactly(
        self, cache_matrix
    ):
        runs, _, _ = cache_matrix
        _verdicts_identical(runs["baseline"], runs["cold"])
        # An initially-empty store leaves every counter untouched, at
        # any ``jobs`` — cold means cold.
        baseline = dict(aggregate_analysis_stats(runs["baseline"].points))
        for name in ("cold", "parallel_cold"):
            assert dict(aggregate_analysis_stats(runs[name].points)) == baseline

    @pytest.mark.parametrize(
        "name", ["warm", "parallel_cold", "parallel_warm"]
    )
    def test_every_cache_configuration_is_verdict_identical(
        self, cache_matrix, name
    ):
        runs, _, _ = cache_matrix
        _verdicts_identical(runs["baseline"], runs[name])

    def test_warm_run_is_served_by_the_persistent_tier(self, cache_matrix):
        runs, _, _ = cache_matrix
        # A warm full rerun is answered by its unit rows: no solve of
        # any kind, one unit-store hit per unit.
        warm = dict(aggregate_analysis_stats(runs["warm"].points))
        assert warm.pop("unit_store.hits") == _units(runs["cold"].config)
        assert not any(warm.values())

    def test_fully_warm_store_makes_parallel_counters_deterministic(
        self, cache_matrix
    ):
        runs, _, _ = cache_matrix
        assert dict(aggregate_analysis_stats(runs["warm"].points)) == dict(
            aggregate_analysis_stats(runs["parallel_warm"].points)
        )

    def test_cold_runs_leave_one_row_per_unit(self, cache_matrix):
        runs, seq_db, par_db = cache_matrix
        config = runs["cold"].config
        expected = sorted(
            unit_digest(config, point, index, None, "count_unschedulable")
            for point in range(len(config.points))
            for index in range(config.sets_per_point)
        )
        for path in (seq_db, par_db):
            store = PersistentStore(path)
            assert sorted(store.digests()) == expected
            assert store.stats()["entries"] == _units(config)
            store.close()
