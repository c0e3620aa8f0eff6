"""Unit tests for trace aggregation, rendering, and reconciliation."""

from dataclasses import dataclass, field

import pytest

from repro.obs import (
    EVENT_VERSION,
    aggregate_events,
    compare_profiles,
    profile_trace,
    reconcile,
    render_profile,
)
from repro.obs.profile import FAILURE_EVENT, PhaseTiming


def _event(name, *, dur=None, run=None, **fields):
    event = {"v": EVENT_VERSION, "name": name, "t": 0.0}
    if dur is not None:
        event["dur"] = dur
    if run is not None:
        event["run"] = run
    if fields:
        event["f"] = fields
    return event


_SAMPLE = [
    _event("run.start", run="r1", points=1),
    _event("solve", dur=0.2, status="optimal", degradation=0),
    _event("solve", dur=0.4, status="optimal", degradation=1),
    _event("solve", dur=0.1, status="infeasible"),
    _event("cache.hits", amount=3),
    _event("cache.hits", amount=2),
    _event("cache.milp_solves", amount=3),
    _event("worker.unit"),
    _event(FAILURE_EVENT, dur=0.5, protocol="proposed"),
    _event("run.end", run="r1", dur=1.0),
]


class TestAggregate:
    def test_counts_and_totals(self):
        report = aggregate_events(_SAMPLE)
        assert report.events_total == len(_SAMPLE)
        assert report.counts["solve"] == 3
        assert report.runs == {"r1"}
        assert report.failures == 1

    def test_cache_amounts_summed(self):
        report = aggregate_events(_SAMPLE)
        assert report.cache_counters == {"hits": 5, "milp_solves": 3}

    def test_solve_outcomes(self):
        report = aggregate_events(_SAMPLE)
        assert report.solve_statuses == {"optimal": 2, "infeasible": 1}
        assert report.solve_degradations == {0: 1, 1: 1}

    def test_timings(self):
        report = aggregate_events(_SAMPLE)
        timing = report.timings["solve"]
        assert timing.count == 3
        assert timing.total == pytest.approx(0.7)
        assert timing.maximum == 0.4
        assert timing.mean == pytest.approx(0.7 / 3)
        assert report.solve_durations == [0.2, 0.4, 0.1]

    def test_runtime_split(self):
        report = aggregate_events(_SAMPLE)
        assert "worker.unit" in report.runtime_counts()
        assert "worker.unit" not in report.deterministic_counts()
        assert "solve" in report.deterministic_counts()

    def test_empty_phase_timing_mean_is_nan(self):
        import math

        assert math.isnan(PhaseTiming().mean)


class TestRender:
    def test_full_render_has_all_sections(self):
        text = render_profile(aggregate_events(_SAMPLE))
        assert "work events" in text
        assert "analysis cache counters" in text
        assert "solve outcomes" in text
        assert "runtime events" in text
        assert "timings" in text
        assert "solve wall-time histogram" in text

    def test_deterministic_render_omits_runtime(self):
        text = render_profile(aggregate_events(_SAMPLE), timings=False)
        assert "worker.unit" not in text
        assert "timings" not in text
        assert "work events" in text

    def test_deterministic_render_header_ignores_runtime_events(self):
        # The header must not leak events_total (which includes
        # runtime events) or the jobs=1 vs jobs=N comparison breaks.
        with_worker = render_profile(aggregate_events(_SAMPLE), timings=False)
        without = [e for e in _SAMPLE if e["name"] != "worker.unit"]
        assert with_worker == render_profile(
            aggregate_events(without), timings=False
        )

    def test_profile_trace_end_to_end(self, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n".join(json.dumps(e) for e in _SAMPLE) + "\n"
        )
        text = profile_trace(str(path))
        assert "solve" in text


@dataclass
class _FakePoint:
    analysis_stats: dict = field(default_factory=dict)
    failures: tuple = ()


class TestReconcile:
    def test_matching_run_is_clean(self):
        report = aggregate_events(_SAMPLE)
        points = [
            _FakePoint({"hits": 2, "milp_solves": 3}, failures=("f",)),
            _FakePoint({"hits": 3}),
        ]
        assert reconcile(report, points) == []

    def test_counter_mismatch_reported(self):
        report = aggregate_events(_SAMPLE)
        points = [_FakePoint({"hits": 4, "milp_solves": 3}, failures=("f",))]
        problems = reconcile(report, points)
        assert len(problems) == 1
        assert "hits" in problems[0]

    def test_ledger_mismatch_reported(self):
        report = aggregate_events(_SAMPLE)
        points = [_FakePoint({"hits": 5, "milp_solves": 3})]
        problems = reconcile(report, points)
        assert len(problems) == 1
        assert "failure" in problems[0]


class TestCompareProfiles:
    def test_identical_streams_agree(self):
        assert compare_profiles(_SAMPLE, list(_SAMPLE)) == []

    def test_runtime_events_do_not_matter(self):
        trimmed = [e for e in _SAMPLE if e["name"] != "worker.unit"]
        extra = _SAMPLE + [_event("highs.retry"), _event("gen.tasksets")]
        assert compare_profiles(trimmed, extra) == []

    def test_work_count_difference_detected(self):
        assert compare_profiles(_SAMPLE, _SAMPLE + [_event("solve")])

    def test_cache_amount_difference_detected(self):
        changed = [dict(e) for e in _SAMPLE]
        changed[4] = _event("cache.hits", amount=4)
        problems = compare_profiles(_SAMPLE, changed)
        assert any("cache" in p for p in problems)

    def test_status_difference_detected(self):
        changed = [dict(e) for e in _SAMPLE]
        changed[3] = _event("solve", dur=0.1, status="timeout")
        problems = compare_profiles(_SAMPLE, changed)
        assert any("status" in p for p in problems)
