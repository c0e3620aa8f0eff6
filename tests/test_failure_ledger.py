"""Fault isolation in the sweep runner: ledger, policies, advantage errors."""

import pytest

import repro.experiments.units as units_module
from repro.errors import ExperimentError, SolverError
from repro.experiments import (
    ExperimentConfig,
    FailurePolicy,
    FailureRecord,
    PointResult,
    SweepPoint,
    SweepResult,
    run_experiment,
    run_point,
)
from repro.generator.taskset_gen import GenerationConfig


@pytest.fixture
def config():
    points = tuple(
        SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
        for u in (0.2, 0.4)
    )
    return ExperimentConfig(
        name="mini",
        x_label="U",
        points=points,
        sets_per_point=3,
        seed=11,
        method="closed_form",
    )


def _fault_on(monkeypatch, protocol, taskset_index):
    """Fail one taskset/protocol pair per point, pass everything else."""
    seen: dict[float, list] = {}

    def fake_is_schedulable(taskset, proto, **kwargs):
        digests = seen.setdefault(proto, [])
        if taskset.digest() not in digests:
            digests.append(taskset.digest())
        index = digests.index(taskset.digest()) % 3
        if proto == protocol and index == taskset_index:
            raise SolverError("injected solver crash")
        return True

    monkeypatch.setattr(units_module, "is_schedulable", fake_is_schedulable)


class TestFailurePolicies:
    def test_count_unschedulable_is_conservative(self, monkeypatch, config):
        _fault_on(monkeypatch, "wasly", taskset_index=1)
        result = run_point(
            config.points[0], config, seed=11,
            failure_policy=FailurePolicy.COUNT_UNSCHEDULABLE,
        )
        assert result.ratios["wasly"] == pytest.approx(2 / 3)
        assert result.ratios["proposed"] == pytest.approx(1.0)
        assert len(result.failures) == 1

    def test_skip_drops_pair_from_denominator(self, monkeypatch, config):
        _fault_on(monkeypatch, "wasly", taskset_index=1)
        result = run_point(
            config.points[0], config, seed=11, failure_policy="skip"
        )
        assert result.ratios["wasly"] == pytest.approx(1.0)
        assert result.sets_evaluated == 3
        assert len(result.failures) == 1

    def test_raise_propagates(self, monkeypatch, config):
        _fault_on(monkeypatch, "wasly", taskset_index=1)
        with pytest.raises(SolverError):
            run_point(
                config.points[0], config, seed=11,
                failure_policy=FailurePolicy.RAISE,
            )

    def test_unknown_policy_rejected(self, config):
        with pytest.raises(ExperimentError) as excinfo:
            run_point(config.points[0], config, seed=11, failure_policy="explode")
        assert "count_unschedulable" in str(excinfo.value)


class TestLedger:
    def test_sweep_completes_and_records_failures(self, monkeypatch, config):
        _fault_on(monkeypatch, "proposed", taskset_index=0)
        result = run_experiment(config)
        assert len(result.points) == 2
        ledger = result.failures
        assert len(ledger) == 2  # one injected failure per point
        record = ledger[0]
        assert record.protocol == "proposed"
        assert record.x == 0.2
        assert record.seed == 11
        assert record.taskset_index == 0
        assert len(record.taskset_digest) == 16
        assert record.error_type == "SolverError"
        assert "injected solver crash" in record.message

    def test_clean_sweep_has_empty_ledger(self, config):
        result = run_experiment(config)
        assert result.failures == ()

    def test_degradation_attribute_is_captured(self, monkeypatch, config):
        def fake_is_schedulable(taskset, proto, **kwargs):
            error = SolverError("exhausted")
            error.degradation = 3
            raise error

        monkeypatch.setattr(units_module, "is_schedulable", fake_is_schedulable)
        result = run_point(config.points[0], config, seed=11)
        assert all(f.degradation == 3 for f in result.failures)
        assert result.ratios["proposed"] == 0.0

    def test_all_failed_with_skip_reports_zero(self, monkeypatch, config):
        def fake_is_schedulable(taskset, proto, **kwargs):
            raise SolverError("dead backend")

        monkeypatch.setattr(units_module, "is_schedulable", fake_is_schedulable)
        result = run_point(config.points[0], config, seed=11, failure_policy="skip")
        assert all(v == 0.0 for v in result.ratios.values())


class TestAdvantageErrors:
    def test_empty_sweep_raises_experiment_error(self, config):
        empty = SweepResult(config=config, points=())
        with pytest.raises(ExperimentError) as excinfo:
            empty.advantage("proposed", "wasly")
        assert "empty sweep" in str(excinfo.value)

    def test_unknown_protocol_lists_valid_names(self, config):
        point = PointResult(
            x=0.2,
            ratios={p: 1.0 for p in config.protocols},
            sets_evaluated=1,
            elapsed_seconds=0.0,
        )
        result = SweepResult(config=config, points=(point,))
        with pytest.raises(ExperimentError) as excinfo:
            result.advantage("proposed", "cplex")
        message = str(excinfo.value)
        assert "'cplex'" in message
        for name in config.protocols:
            assert name in message

    def test_valid_call_unchanged(self, config):
        point = PointResult(
            x=0.2,
            ratios={"nps_carry": 0.4, "wasly": 0.5, "proposed": 0.9},
            sets_evaluated=1,
            elapsed_seconds=0.0,
        )
        result = SweepResult(config=config, points=(point,))
        assert result.advantage("proposed", "wasly") == pytest.approx(0.4)


class TestLedgerReport:
    def test_render_failure_ledger(self, monkeypatch, config):
        from repro.experiments import render_failure_ledger, render_sweep_table

        _fault_on(monkeypatch, "wasly", taskset_index=2)
        result = run_experiment(config)
        ledger_text = render_failure_ledger(result)
        assert "failure ledger" in ledger_text
        assert "SolverError" in ledger_text
        assert "wasly" in ledger_text
        assert "failures:" in render_sweep_table(result)

    def test_empty_ledger_renders_empty(self, config):
        from repro.experiments import render_failure_ledger

        result = run_experiment(config)
        assert render_failure_ledger(result) == ""
