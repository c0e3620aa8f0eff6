"""The persistent cache tier: store semantics, corruption, identity.

The on-disk sqlite store (:mod:`repro.analysis.store`) must be exactly
as trustworthy as re-solving: rank upserts converge under concurrent
writers, corrupted rows are detected and re-solved (never trusted),
a schema bump discards the whole store, and — the acceptance bar —
sweeps produce bit-identical verdicts with the cache disabled, cold,
pre-populated, sequential, and under ``--jobs N``.
"""

import dataclasses
import pickle
import sqlite3
from concurrent import futures

import pytest

from repro.analysis.store import (
    ENTRY_RANKS,
    SCHEMA_VERSION,
    PersistentStore,
    entry_rank,
)
from repro.experiments import run_experiment
from repro.experiments.config import figure2_config
from repro.experiments.report import aggregate_analysis_stats
from repro.faults import FaultPlan, FaultSpec, injecting

MILP_ENTRY = ("milp", 40.25, 6, {"rows": 9, "binaries": 4}, 0)
LP_ENTRY = ("lp", 41.5)


def _reduced(inset: str = "fig2a", sets: int = 2, step: slice = slice(2, 5, 2)):
    config = figure2_config(inset, sets_per_point=sets, seed=2020)
    return dataclasses.replace(config, points=config.points[step])


def _verdicts_identical(a, b) -> None:
    # analysis_stats is intentionally *not* compared: with a persistent
    # store, which tier serves a digest (and hence the counters) depends
    # on what earlier runs wrote; the verdicts never do.
    assert [p.x for p in a.points] == [p.x for p in b.points]
    for pa, pb in zip(a.points, b.points):
        assert pa.ratios == pb.ratios
        assert pa.failures == pb.failures
        assert pa.sets_evaluated == pb.sets_evaluated


class TestStoreSemantics:
    def test_round_trip_is_exact(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("d-milp", MILP_ENTRY)
        store.store("d-lp", LP_ENTRY)
        store.store("d-float", 12.625)  # the case-(b) memo shape
        assert store.fetch("d-milp") == (MILP_ENTRY, False)
        assert store.fetch("d-lp") == (LP_ENTRY, False)
        assert store.fetch("d-float") == (12.625, False)

    def test_missing_digest_is_a_clean_miss(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        assert store.fetch("absent") == (None, False)

    def test_exact_entries_upgrade_screening_bounds_never_vice_versa(
        self, tmp_path
    ):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("d", LP_ENTRY)
        store.store("d", MILP_ENTRY)  # rank 2 replaces rank 1
        assert store.fetch("d") == (MILP_ENTRY, False)
        store.store("d", LP_ENTRY)  # rank 1 never downgrades rank 2
        assert store.fetch("d") == (MILP_ENTRY, False)

    def test_equal_rank_write_is_a_no_op(self, tmp_path):
        # Equal-rank payloads are identical by content-addressing; the
        # store keeps the first so concurrent writers cannot flip-flop.
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("d", LP_ENTRY)
        store.store("d", ("lp", 99.0))
        assert store.fetch("d") == (LP_ENTRY, False)

    def test_bare_floats_rank_as_exact(self):
        assert entry_rank(12.5) == ENTRY_RANKS["milp"]
        assert entry_rank(LP_ENTRY) < entry_rank(MILP_ENTRY)

    def test_pickle_ships_only_the_path(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("d", LP_ENTRY)  # force a live connection
        clone = pickle.loads(pickle.dumps(store))
        assert clone.path == store.path
        assert clone._conn is None  # each process opens its own
        assert clone.fetch("d") == (LP_ENTRY, False)

    def test_schema_version_mismatch_discards_the_store(self, tmp_path):
        path = tmp_path / "c.sqlite"
        store = PersistentStore(path)
        store.store("d", MILP_ENTRY)
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        reopened = PersistentStore(path)
        assert len(reopened) == 0
        assert reopened.stats()["schema_version"] == SCHEMA_VERSION

    def test_gc_keeps_the_most_recently_written(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        for i in range(5):
            store.store(f"d{i}", float(i))
        assert store.gc(keep=2) == 3
        assert sorted(store.digests()) == ["d3", "d4"]

    def test_clear_empties_the_store(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("d", LP_ENTRY)
        assert store.clear() == 1
        assert len(store) == 0

    def test_created_subquery_uses_its_index(self, tmp_path):
        # Every upsert reads MAX(created); unindexed, that scans the
        # whole table and upserts slow down as the store grows.
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("d", LP_ENTRY)
        plan = store._connect().execute(
            "EXPLAIN QUERY PLAN"
            " SELECT COALESCE(MAX(created), 0) + 1 FROM entries"
        ).fetchall()
        assert [row[-1] for row in plan] == [
            "SEARCH entries USING COVERING INDEX entries_created"
        ]

    def test_unit_rows_grow_by_protocol_count(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        two = ("unit", {"verdicts": {"a": [1, 1], "b": [0, 1]}, "failures": []})
        three = (
            "unit",
            {"verdicts": {"a": [1, 1], "b": [0, 1], "c": [1, 1]}, "failures": []},
        )
        store.store("u", three)
        store.store("u", two)  # fewer protocols never replace more
        assert store.fetch("u") == (three, False)
        store.store("v", two)
        store.store("v", three)
        assert store.fetch("v") == (three, False)
        assert entry_rank(three) == ENTRY_RANKS["unit"]

    def test_stats_breaks_entries_down_by_rank(self, tmp_path):
        store = PersistentStore(tmp_path / "c.sqlite")
        store.store("d1", MILP_ENTRY)
        store.store("d2", LP_ENTRY)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["exact_entries"] == 1
        assert stats["screen_entries"] == 1
        assert stats["file_bytes"] > 0


def _hammer(path: str, digest: str, first, second, rounds: int = 20) -> None:
    """Worker body: upsert one digest with both ranks, many times."""
    store = PersistentStore(path)
    for _ in range(rounds):
        store.store(digest, first)
        store.store(digest, second)
    store.close()


class TestConcurrentWriters:
    def test_racing_upserts_converge_to_one_exact_row(self, tmp_path):
        # Satellite: two workers hammer the same digest in opposite
        # rank orders; the store must end with exactly one row holding
        # the exact (milp) payload, whatever the interleaving.
        path = str(tmp_path / "c.sqlite")
        with futures.ProcessPoolExecutor(max_workers=2) as pool:
            done = [
                pool.submit(_hammer, path, "shared", LP_ENTRY, MILP_ENTRY),
                pool.submit(_hammer, path, "shared", MILP_ENTRY, LP_ENTRY),
            ]
            for f in done:
                f.result(timeout=120)
        store = PersistentStore(path)
        assert len(store) == 1
        assert store.fetch("shared") == (MILP_ENTRY, False)


class TestCorruption:
    @pytest.mark.parametrize("mode", ["garbage", "torn"])
    def test_garbled_row_is_detected_dropped_and_never_served(
        self, tmp_path, mode
    ):
        store = PersistentStore(tmp_path / "c.sqlite")
        plan = FaultPlan(
            specs=(FaultSpec(site="cache.corrupt", mode=mode),), name="g"
        )
        with injecting(plan) as scope:
            store.store("d", MILP_ENTRY)
        assert [f.mode for f in scope.fired] == [mode]
        assert store.fetch("d") == (None, True)  # detected + dropped
        assert store.corrupt_dropped == 1
        assert store.fetch("d") == (None, False)  # row really is gone

    def test_sweep_heals_a_fully_corrupted_store(self, tmp_path):
        # Every write of the first cached run is garbled; the next run
        # must detect each bad row, re-solve, report the corruption in
        # its stats, and still produce the cacheless verdicts. The run
        # after that finds only clean re-stored rows.
        config = _reduced(step=slice(2, 3))
        db = str(tmp_path / "c.sqlite")
        baseline = run_experiment(config)
        plan = FaultPlan(
            specs=(FaultSpec(site="cache.corrupt", times=None),),
            name="garble-everything",
        )
        with injecting(plan) as scope:
            poisoned = run_experiment(config, cache_path=db)
        assert scope.fired  # rows were actually garbled
        _verdicts_identical(baseline, poisoned)
        healing = run_experiment(config, cache_path=db)
        _verdicts_identical(baseline, healing)
        stats = aggregate_analysis_stats(healing.points)
        assert stats["persistent.corrupt"] >= 1
        healed = run_experiment(config, cache_path=db)
        _verdicts_identical(baseline, healed)
        stats = aggregate_analysis_stats(healed.points)
        assert stats["persistent.corrupt"] == 0
        assert stats["milp_solves"] == 0  # clean rows now serve everything


@pytest.fixture(scope="module")
def cache_matrix(tmp_path_factory):
    """One reduced sweep run under every cache configuration.

    Module-scoped: the five runs share the work, and later runs reuse
    the store earlier runs populated (that reuse *is* the scenario).
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
        # Another failure policy keys other unit rows but the same
        # solver entries: the per-solve tier answers this rerun.
        "other_policy": run_experiment(
            config, cache_path=str(seq_db), failure_policy="skip"
        ),
    }
    return runs, seq_db


class TestBitIdentityAcrossCacheConfigs:
    """Tentpole acceptance: the cache may never change a verdict."""

    def test_cold_run_matches_the_cacheless_baseline_exactly(
        self, cache_matrix
    ):
        runs, _ = cache_matrix
        _verdicts_identical(runs["baseline"], runs["cold"])
        # Sequentially, an initially-empty store even leaves every
        # counter untouched — cold means cold.
        assert dict(aggregate_analysis_stats(runs["baseline"].points)) == dict(
            aggregate_analysis_stats(runs["cold"].points)
        )

    @pytest.mark.parametrize(
        "name", ["warm", "parallel_cold", "parallel_warm"]
    )
    def test_every_cache_configuration_is_verdict_identical(
        self, cache_matrix, name
    ):
        runs, _ = cache_matrix
        _verdicts_identical(runs["baseline"], runs[name])

    def test_warm_run_is_served_by_the_persistent_tier(self, cache_matrix):
        runs, _ = cache_matrix
        config = runs["cold"].config
        cold = aggregate_analysis_stats(runs["cold"].points)
        # A warm full rerun is answered by its unit rows: no solve of
        # any kind, one unit-store hit per unit.
        warm = dict(aggregate_analysis_stats(runs["warm"].points))
        assert warm.pop("unit_store.hits") == (
            len(config.points) * config.sets_per_point
        )
        assert not any(warm.values())
        # A rerun that misses the unit rows still finds every solve in
        # the per-solve tier.
        _verdicts_identical(runs["baseline"], runs["other_policy"])
        warm = aggregate_analysis_stats(runs["other_policy"].points)
        assert warm["unit_store.hits"] == 0
        fall_throughs = warm["persistent.hits"] + warm["misses"]
        assert fall_throughs > 0
        assert warm["persistent.hits"] / fall_throughs >= 0.95
        assert warm["milp_solves"] <= 0.05 * cold["milp_solves"]
        assert warm["lp_solves"] <= 0.05 * max(cold["lp_solves"], 1)

    def test_fully_warm_store_makes_parallel_counters_deterministic(
        self, cache_matrix
    ):
        # Once every digest is on disk, even worker scheduling cannot
        # shift which tier answers — the counters themselves agree.
        runs, _ = cache_matrix
        assert dict(aggregate_analysis_stats(runs["warm"].points)) == dict(
            aggregate_analysis_stats(runs["parallel_warm"].points)
        )

    def test_store_holds_both_entry_kinds(self, cache_matrix):
        runs, seq_db = cache_matrix
        config = runs["cold"].config
        stats = PersistentStore(seq_db).stats()
        assert stats["entries"] > 0
        # One row per unit and failure policy (count_unschedulable and
        # skip); unit rows are not counted as exact optima.
        assert stats["unit_entries"] == (
            2 * len(config.points) * config.sets_per_point
        )
        assert stats["entries"] == (
            stats["exact_entries"]
            + stats["screen_entries"]
            + stats["lower_bound_entries"]
            + stats["unit_entries"]
        )
