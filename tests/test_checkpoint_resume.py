"""Sweep checkpoint/resume: atomicity, config keying, bit-identical ratios."""

import json

import pytest

import repro.experiments.runner as runner_module
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    FailureRecord,
    PointResult,
    SweepPoint,
    run_experiment,
)
from repro.experiments.persistence import (
    config_digest,
    load_checkpoint,
    save_checkpoint,
    load_sweep,
    save_sweep,
)
from repro.experiments.runner import SweepResult
from repro.generator.taskset_gen import GenerationConfig


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


class TestCheckpointFile:
    def test_roundtrip_including_failures(self, tmp_path, config):
        record = FailureRecord(
            x=0.2, protocol="wasly", seed=7, taskset_index=1,
            taskset_digest="ab" * 8, error_type="SolverError",
            message="boom", degradation=2,
        )
        point = PointResult(
            x=0.2, ratios={"wasly": 0.5}, sets_evaluated=3,
            elapsed_seconds=1.0, failures=(record,),
        )
        path = tmp_path / "ck.json"
        save_checkpoint(path, config, {0: point})
        loaded = load_checkpoint(path, config)
        assert loaded == {0: point}

    def test_atomic_write_leaves_no_temp_file(self, tmp_path, config):
        path = tmp_path / "ck.json"
        point = PointResult(
            x=0.2, ratios={"proposed": 1.0}, sets_evaluated=3,
            elapsed_seconds=0.1,
        )
        save_checkpoint(path, config, {0: point})
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_digest_mismatch_is_rejected(self, tmp_path, config):
        path = tmp_path / "ck.json"
        save_checkpoint(path, config, {})
        import dataclasses

        other = dataclasses.replace(config, seed=99)
        assert config_digest(other) != config_digest(config)
        with pytest.raises(ExperimentError) as excinfo:
            load_checkpoint(path, other)
        assert "different experiment" in str(excinfo.value)

    def test_corrupt_json_is_rejected(self, tmp_path, config):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError):
            load_checkpoint(path, config)

    def test_missing_file(self, tmp_path, config):
        path = tmp_path / "absent.json"
        assert load_checkpoint(path, config, missing_ok=True) == {}
        with pytest.raises(ExperimentError):
            load_checkpoint(path, config)


class TestResume:
    def test_interrupted_sweep_resumes_bit_identical(
        self, tmp_path, config, monkeypatch
    ):
        baseline = run_experiment(config)

        path = tmp_path / "ck.json"
        original_evaluate = runner_module._evaluate_unit
        sets = config.sets_per_point
        calls = []  # the x of every evaluated unit's point

        def counting_evaluate(point, *args, **kwargs):
            calls.append(point.x)
            if point.x == 0.4:
                raise KeyboardInterrupt  # simulate a mid-sweep kill
            return original_evaluate(point, *args, **kwargs)

        monkeypatch.setattr(runner_module, "_evaluate_unit", counting_evaluate)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config, checkpoint_path=str(path))
        assert calls == [0.2] * sets + [0.4]
        # Point 0 was persisted before the kill.
        assert set(load_checkpoint(path, config)) == {0}

        calls.clear()
        monkeypatch.setattr(
            runner_module,
            "_evaluate_unit",
            lambda *a, **k: (calls.append(a[0].x), original_evaluate(*a, **k))[1],
        )
        resumed = run_experiment(config, checkpoint_path=str(path), resume=True)
        # Only the unfinished points were re-evaluated.
        assert calls == [0.4] * sets + [0.6] * sets
        for got, expected in zip(resumed.points, baseline.points):
            assert got.x == expected.x
            assert got.ratios == expected.ratios  # bit-identical floats
            assert got.sets_evaluated == expected.sets_evaluated

    def test_completed_checkpoint_reruns_nothing(self, tmp_path, config, monkeypatch):
        path = tmp_path / "ck.json"
        first = run_experiment(config, checkpoint_path=str(path))

        def exploding_evaluate(*args, **kwargs):
            raise AssertionError("no point should be re-evaluated")

        monkeypatch.setattr(runner_module, "_evaluate_unit", exploding_evaluate)
        second = run_experiment(config, checkpoint_path=str(path), resume=True)
        for got, expected in zip(second.points, first.points):
            assert got.ratios == expected.ratios

    def test_without_resume_checkpoint_is_overwritten(self, tmp_path, config):
        path = tmp_path / "ck.json"
        run_experiment(config, checkpoint_path=str(path))
        result = run_experiment(config, checkpoint_path=str(path))
        payload = json.loads(path.read_text())
        assert set(payload["points"]) == {"0", "1", "2"}
        assert len(result.points) == 3


class TestSweepSerializationWithFailures:
    def test_sweep_roundtrip_keeps_ledger(self, tmp_path, config, monkeypatch):
        import repro.experiments.units as rm
        from repro.errors import SolverError

        original = rm.is_schedulable

        def flaky(taskset, protocol, **kwargs):
            if protocol == "wasly":
                raise SolverError("boom")
            return original(taskset, protocol, **kwargs)

        monkeypatch.setattr(rm, "is_schedulable", flaky)
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
