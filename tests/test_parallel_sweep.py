"""The parallel sweep engine: bit-identity, unit-store resume, ordering."""

import dataclasses

import pytest

from repro.analysis.store import PersistentStore
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    PointResult,
    SweepPoint,
    SweepResult,
    run_experiment,
    run_point,
)
from repro.experiments.config import figure2_config
from repro.experiments.units import unit_digest
from repro.generator.taskset_gen import GenerationConfig


def _reduced(inset: str, sets: int = 2, step: slice = slice(2, 5, 2)):
    config = figure2_config(inset, sets_per_point=sets, seed=2020)
    return dataclasses.replace(config, points=config.points[step])


def _identical(a: SweepResult, b: SweepResult) -> None:
    assert [p.x for p in a.points] == [p.x for p in b.points]
    for pa, pb in zip(a.points, b.points):
        assert pa.ratios == pb.ratios
        assert pa.failures == pb.failures
        assert pa.sets_evaluated == pb.sets_evaluated
        assert dict(pa.analysis_stats) == dict(pb.analysis_stats)


class TestBitIdentity:
    """Satellite: parallel + cached equals the sequential seed path."""

    def test_fig2a_reduced_parallel_matches_sequential(self):
        config = _reduced("fig2a")
        sequential = run_experiment(config)
        parallel = run_experiment(config, jobs=2)
        _identical(sequential, parallel)

    def test_fig2a_reduced_service_matches_sequential(self):
        # Third leg of the equivalence matrix: jobs=1 == jobs=N ==
        # service (socket-dispatched workers, no persistent store).
        from repro.service import run_service_sweep

        config = _reduced("fig2a")
        sequential = run_experiment(config)
        service = run_service_sweep(config, workers=2)
        _identical(sequential, service)

    def test_fig2d_reduced_parallel_matches_sequential(self):
        config = _reduced("fig2d", sets=2, step=slice(3, 5))
        sequential = run_experiment(config)
        parallel = run_experiment(config, jobs=2)
        _identical(sequential, parallel)

    def test_parallel_cache_hit_rate_nonzero(self):
        # The one reduced fig2a point whose verdicts still reach HiGHS.
        config = _reduced("fig2a", sets=4, step=slice(3, 4))
        result = run_experiment(config, jobs=2)
        stats = result.points[0].analysis_stats
        assert stats["hits"] > 0
        assert stats["milp_solves"] > 0

    def test_failure_ledger_identical_under_parallelism(self):
        # ls_policy="bogus" makes every "proposed" evaluation raise
        # AnalysisError inside the worker — a deterministic failure
        # that (unlike a monkeypatch) crosses process boundaries.
        points = tuple(
            SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
            for u in (0.2, 0.4)
        )
        config = ExperimentConfig(
            name="ledger",
            x_label="U",
            points=points,
            sets_per_point=3,
            seed=11,
            method="closed_form",
            ls_policy="bogus",
        )
        sequential = run_experiment(config)
        parallel = run_experiment(config, jobs=2)
        _identical(sequential, parallel)
        assert sequential.failures  # the injection actually fired
        assert [f.taskset_index for f in parallel.failures] == [
            f.taskset_index for f in sequential.failures
        ]

    def test_raise_policy_propagates_from_workers(self):
        points = (
            SweepPoint(0.2, GenerationConfig(n=3, utilization=0.2, gamma=0.1)),
        )
        config = ExperimentConfig(
            name="boom",
            x_label="U",
            points=points,
            sets_per_point=2,
            seed=11,
            method="closed_form",
            ls_policy="bogus",
        )
        with pytest.raises(Exception):
            run_experiment(config, jobs=2, failure_policy="raise")


class TestParallelCheckpointing:
    """Satellite: parent-only writes, one unit row per finished unit."""

    @pytest.fixture
    def config(self):
        points = tuple(
            SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
            for u in (0.2, 0.4, 0.6)
        )
        return ExperimentConfig(
            name="ckpt",
            x_label="U",
            points=points,
            sets_per_point=2,
            seed=11,
            method="closed_form",
        )

    @staticmethod
    def _served(result):
        return [
            dict(p.analysis_stats).get("unit_store.hits", 0)
            for p in result.points
        ]

    def test_one_write_per_unit(self, tmp_path, config, monkeypatch):
        path = tmp_path / "store.db"
        writes = []
        original = PersistentStore.store

        def counting_store(self, digest, value):
            writes.append(digest)
            return original(self, digest, value)

        # Patched in the parent only: workers are forked after the
        # patch but write no unit rows, and closed_form solves write
        # no solver entries either.
        monkeypatch.setattr(PersistentStore, "store", counting_store)
        run_experiment(config, jobs=2, cache_path=str(path))
        expected = {
            unit_digest(config, p, s, None, "count_unschedulable")
            for p in range(len(config.points))
            for s in range(config.sets_per_point)
        }
        assert sorted(writes) == sorted(expected)
        store = PersistentStore(path)
        assert set(store.digests()) == expected
        store.close()

    def test_parallel_resume_skips_completed_points(self, tmp_path, config):
        path = tmp_path / "store.db"
        # Drop the rows of points 1 and 2 from a full store, then
        # resume the remaining units in parallel.
        run_experiment(config, cache_path=str(path))
        store = PersistentStore(path)
        conn = store._connect()
        for point in (1, 2):
            for index in range(config.sets_per_point):
                conn.execute(
                    "DELETE FROM entries WHERE digest = ?",
                    (unit_digest(config, point, index, None,
                                 "count_unschedulable"),),
                )
        conn.commit()
        store.close()
        resumed = run_experiment(config, jobs=2, cache_path=str(path))
        fresh = run_experiment(config)
        assert [p.ratios for p in resumed.points] == [
            p.ratios for p in fresh.points
        ]
        assert [p.failures for p in resumed.points] == [
            p.failures for p in fresh.points
        ]
        assert self._served(resumed) == [2, 0, 0]
        assert len(PersistentStore(path)) == 6

    def test_parallel_checkpoint_resumes_sequentially_too(self, tmp_path, config):
        path = tmp_path / "store.db"
        parallel = run_experiment(config, jobs=2, cache_path=str(path))
        resumed = run_experiment(config, cache_path=str(path))
        assert [p.ratios for p in resumed.points] == [
            p.ratios for p in parallel.points
        ]
        assert self._served(resumed) == [2, 2, 2]


class TestSweepResultOrdering:
    """Satellite: out-of-order assembly sorts by x before series()."""

    def _point(self, x: float) -> PointResult:
        return PointResult(
            x=x,
            ratios={"proposed": x / 10.0},
            sets_evaluated=1,
            elapsed_seconds=0.0,
        )

    @pytest.fixture
    def config(self):
        points = tuple(
            SweepPoint(x, GenerationConfig(n=3, utilization=0.2, gamma=0.1))
            for x in (1.0, 2.0, 3.0)
        )
        return ExperimentConfig(
            name="order",
            x_label="x",
            points=points,
            sets_per_point=1,
            seed=1,
            protocols=("proposed",),
            method="closed_form",
        )

    def test_out_of_order_points_are_sorted(self, config):
        shuffled = SweepResult(
            config=config,
            points=tuple(self._point(x) for x in (3.0, 1.0, 2.0)),
        )
        assert shuffled.x_values == [1.0, 2.0, 3.0]
        assert shuffled.series("proposed") == [
            (1.0, 0.1), (2.0, 0.2), (3.0, 0.3),
        ]

    def test_in_order_points_untouched(self, config):
        ordered_points = tuple(self._point(x) for x in (1.0, 2.0, 3.0))
        result = SweepResult(config=config, points=ordered_points)
        assert result.points == ordered_points


class TestEngineValidation:
    def test_jobs_must_be_positive(self):
        points = (
            SweepPoint(0.2, GenerationConfig(n=3, utilization=0.2, gamma=0.1)),
        )
        config = ExperimentConfig(
            name="bad",
            x_label="U",
            points=points,
            sets_per_point=1,
            seed=1,
            method="closed_form",
        )
        with pytest.raises(ExperimentError):
            run_experiment(config, jobs=0)

    def test_run_point_populates_analysis_stats(self):
        point = SweepPoint(
            0.2, GenerationConfig(n=3, utilization=0.2, gamma=0.1)
        )
        config = ExperimentConfig(
            name="stats",
            x_label="U",
            points=(point,),
            sets_per_point=2,
            seed=11,
            method="milp",
        )
        result = run_point(point, config, seed=11)
        assert result.analysis_stats  # counters collected per unit
        assert result.analysis_stats["misses"] >= 0

    def test_parallel_progress_called_once_per_point(self):
        points = tuple(
            SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
            for u in (0.2, 0.4)
        )
        config = ExperimentConfig(
            name="prog",
            x_label="U",
            points=points,
            sets_per_point=2,
            seed=11,
            method="closed_form",
        )
        seen = []
        run_experiment(config, jobs=2, progress=lambda p: seen.append(p.x))
        assert sorted(seen) == [0.2, 0.4]
