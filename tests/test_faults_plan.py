"""The fault-plan layer: specs, triggers, scopes, JSON round-trips."""

import json

import pytest

from repro.errors import FaultPlanError
from repro.faults import injection
from repro.faults import (
    SITES,
    FaultPlan,
    FaultSpec,
    active,
    fire,
    injecting,
    load_plan,
    save_plan,
)
from repro.obs import events as obs


class TestSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultSpec(site="solver.meltdown")

    def test_unknown_mode_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown mode"):
            FaultSpec(site="solver.fault", mode="oops")

    def test_mode_defaults_to_first_site_mode(self):
        for site, modes in SITES.items():
            assert FaultSpec(site=site).mode == modes[0]

    def test_negative_after_rejected(self):
        with pytest.raises(FaultPlanError, match="after"):
            FaultSpec(site="fs.error", after=-1)

    def test_zero_times_rejected(self):
        with pytest.raises(FaultPlanError, match="times"):
            FaultSpec(site="fs.error", times=0)

    def test_bad_probability_rejected(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultSpec(site="fs.error", probability=1.5)


class TestMatching:
    def test_none_fields_match_anything(self):
        spec = FaultSpec(site="solver.fault")
        assert spec.matches("solver.fault", point=3, unit=7, attempt=2)

    def test_pinned_fields_must_agree(self):
        spec = FaultSpec(site="worker.death", point=1, unit=2, attempt=0)
        assert spec.matches("worker.death", point=1, unit=2, attempt=0)
        assert not spec.matches("worker.death", point=1, unit=2, attempt=1)
        assert not spec.matches("worker.death", point=0, unit=2, attempt=0)
        assert not spec.matches("other.site", point=1, unit=2, attempt=0)

    def test_plan_matching_returns_first_match(self):
        a = FaultSpec(site="worker.death", point=0)
        b = FaultSpec(site="worker.death")
        plan = FaultPlan(specs=(a, b))
        assert plan.matching("worker.death", point=0) is a
        assert plan.matching("worker.death", point=5) is b
        assert plan.matching("solver.fault") is None


class TestRoundTrip:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="solver.fault", mode="garbage", point=2),
                FaultSpec(
                    site="worker.death",
                    unit=1,
                    after=3,
                    times=None,
                    probability=0.5,
                ),
            ),
            seed=99,
            name="chaos",
        )
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    def test_load_missing_plan_is_clear(self, tmp_path):
        with pytest.raises(FaultPlanError, match="not found"):
            load_plan(tmp_path / "nope.json")

    def test_load_invalid_json_is_clear(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(FaultPlanError, match="invalid fault plan JSON"):
            load_plan(path)

    def test_unknown_spec_field_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps({"specs": [{"site": "fs.error", "bogus": 1}]})
        )
        with pytest.raises(FaultPlanError, match="unknown fields"):
            load_plan(path)


class TestFiring:
    def test_fire_without_scope_is_noop(self):
        assert active() is None
        assert fire("solver.fault") is None

    def test_raising_body_leaves_the_scope_stack_as_it_was(self):
        plan = FaultPlan(specs=(FaultSpec(site="fs.error"),))
        before = list(injection._SCOPES)
        with pytest.raises(RuntimeError):
            with injecting(plan, point=0):
                raise RuntimeError("body fails")
        assert injection._SCOPES == before

    def test_first_matching_spec_fires(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="solver.fault", mode="crash", point=0),
                FaultSpec(site="solver.fault", mode="timeout"),
            )
        )
        with injecting(plan, point=0) as scope:
            assert fire("solver.fault").mode == "crash"
        with injecting(plan, point=4) as scope:
            assert fire("solver.fault").mode == "timeout"
            assert scope.fired[0].mode == "timeout"

    def test_after_skips_eligible_hits(self):
        plan = FaultPlan(specs=(FaultSpec(site="fs.error", after=2),))
        with injecting(plan):
            assert fire("fs.error") is None
            assert fire("fs.error") is None
            assert fire("fs.error") is not None

    def test_times_bounds_fires_per_scope(self):
        plan = FaultPlan(specs=(FaultSpec(site="fs.error", times=2),))
        with injecting(plan):
            assert fire("fs.error") is not None
            assert fire("fs.error") is not None
            assert fire("fs.error") is None
        # A fresh scope resets the budget.
        with injecting(plan):
            assert fire("fs.error") is not None

    def test_unlimited_times(self):
        plan = FaultPlan(specs=(FaultSpec(site="fs.error", times=None),))
        with injecting(plan):
            assert all(fire("fs.error") is not None for _ in range(10))

    def test_probability_is_deterministic_per_scope(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(site="fs.error", probability=0.5, times=None),
            ),
            seed=3,
        )

        def pattern():
            with injecting(plan, point=1, unit=2):
                return [fire("fs.error") is not None for _ in range(20)]

        first, second = pattern(), pattern()
        assert first == second
        assert any(first) and not all(first)  # actually probabilistic

    def test_scope_stack_innermost_wins(self):
        outer = FaultPlan(specs=(FaultSpec(site="fs.error"),), name="outer")
        inner = FaultPlan(name="inner")  # no specs: nothing fires
        with injecting(outer):
            with injecting(inner):
                assert active().plan is inner
                assert fire("fs.error") is None
            assert fire("fs.error") is not None

    def test_call_site_context_overrides_ambient(self):
        plan = FaultPlan(specs=(FaultSpec(site="fs.error", point=5),))
        with injecting(plan, point=0):
            assert fire("fs.error") is None
            assert fire("fs.error", point=5) is not None


class TestFiredEvents:
    def test_fired_fault_emits_schema_valid_event(self):
        plan = FaultPlan(
            specs=(FaultSpec(site="solver.fault", mode="garbage"),),
            name="prove-it",
        )
        recorder = obs.EventRecorder()
        with obs.recording(recorder), injecting(plan, point=1, unit=2):
            assert fire("solver.fault", backend="highs") is not None
        (event,) = recorder.events
        assert obs.validate_event(event) == []
        assert event["name"] == "fault.solver.fault"
        assert event["point"] == 1 and event["unit"] == 2
        assert event["f"]["mode"] == "garbage"
        assert event["f"]["plan"] == "prove-it"
        assert event["f"]["backend"] == "highs"
        assert obs.is_runtime_event(event["name"])
