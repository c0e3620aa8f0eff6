"""End-to-end tracing through the sweep engine: determinism, reconciliation.

Satellite of the observability PR: the same configuration traced with
``jobs=1`` and ``jobs=4`` must yield identical aggregated event
counters and identical ``repro profile`` tables (timestamps excluded),
and every trace must reconcile exactly with the run's
``analysis_stats`` and failure ledger.
"""

import dataclasses

import pytest

from repro.experiments import (
    ExperimentConfig,
    SweepPoint,
    run_experiment,
)
from repro.experiments.config import figure2_config
from repro.generator.taskset_gen import GenerationConfig
from repro.obs import (
    aggregate_events,
    compare_profiles,
    read_trace,
    reconcile,
    render_profile,
)


def _reduced(inset: str, method: str = "closed_form", sets: int = 2):
    config = figure2_config(inset, sets_per_point=sets, seed=2020, method=method)
    return dataclasses.replace(config, points=config.points[2:5:2])


def _traced_run(config, tmp_path, label, **kwargs):
    path = tmp_path / f"{label}.jsonl"
    result = run_experiment(config, trace_path=str(path), **kwargs)
    return result, read_trace(path)


class TestTraceDeterminism:
    """jobs=1 and jobs=4 agree on every work-event aggregate."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("traces")
        config = _reduced("fig2a")
        sequential = _traced_run(config, tmp_path, "seq")
        parallel = _traced_run(config, tmp_path, "par", jobs=4)
        return sequential, parallel

    def test_aggregated_counters_identical(self, runs):
        (_, seq_events), (_, par_events) = runs
        assert compare_profiles(seq_events, par_events) == []

    def test_profile_tables_identical(self, runs):
        # The full `repro profile --no-timings` rendering — counts,
        # cache counters, solve outcomes — must match byte-for-byte.
        (_, seq_events), (_, par_events) = runs
        seq_table = render_profile(aggregate_events(seq_events), timings=False)
        par_table = render_profile(aggregate_events(par_events), timings=False)
        assert seq_table == par_table

    def test_both_traces_reconcile_with_results(self, runs):
        for result, events in runs:
            report = aggregate_events(events)
            assert reconcile(report, result.points) == []

    def test_run_lifecycle_events_present(self, runs):
        (_, seq_events), _ = runs
        names = [e["name"] for e in seq_events]
        assert names[0] == "run.start"
        assert names[-1] == "run.end"
        assert names.count("point.end") == 2

    def test_every_event_is_stamped_with_the_run_id(self, runs):
        (_, seq_events), (_, par_events) = runs
        runs_seen = {e["run"] for e in seq_events + par_events}
        assert len(runs_seen) == 1  # same config digest on both paths


class TestMilpTraceReconciliation:
    def test_milp_run_reconciles_and_records_solves(self, tmp_path):
        config = _reduced("fig2a", method="milp")
        result, events = _traced_run(config, tmp_path, "milp", jobs=2)
        report = aggregate_events(events)
        assert reconcile(report, result.points) == []
        assert report.counts.get("solve", 0) > 0
        assert report.counts.get("fixpoint.iteration", 0) > 0
        assert report.cache_counters["milp_solves"] > 0
        # Cache traffic in the trace equals the sweep-table counters.
        assert report.cache_counters["milp_solves"] == sum(
            p.analysis_stats["milp_solves"] for p in result.points
        )


class TestFailureEvents:
    def _failing_config(self):
        # ls_policy="bogus" deterministically raises inside every
        # "proposed" evaluation — the same injection the parallel
        # sweep tests use, so it crosses process boundaries.
        points = tuple(
            SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
            for u in (0.2, 0.4)
        )
        return ExperimentConfig(
            name="ledger",
            x_label="U",
            points=points,
            sets_per_point=3,
            seed=11,
            method="closed_form",
            ls_policy="bogus",
        )

    def test_failure_event_count_matches_ledger(self, tmp_path):
        config = self._failing_config()
        result, events = _traced_run(config, tmp_path, "fail", jobs=2)
        report = aggregate_events(events)
        assert result.failures  # the injection actually fired
        assert report.failures == len(result.failures)
        assert reconcile(report, result.points) == []

    def test_failure_events_deterministic_across_jobs(self, tmp_path):
        config = self._failing_config()
        _, seq_events = _traced_run(config, tmp_path, "fseq")
        _, par_events = _traced_run(config, tmp_path, "fpar", jobs=2)
        assert compare_profiles(seq_events, par_events) == []

    def test_store_served_failures_reconcile(self, tmp_path):
        # A unit served its stored "proposed" failure (and evaluated for
        # the protocols its row lacks) still has one failure event per
        # ledger record: the trace reconciles with its own point.end
        # records, identically for any jobs.
        config = self._failing_config()
        partial = dataclasses.replace(config, protocols=("proposed",))
        traces = []
        for jobs in (1, 2):
            store = str(tmp_path / f"store-{jobs}.sqlite")
            run_experiment(partial, cache_path=store)
            for label in ("grown", "served"):
                result, events = _traced_run(
                    config, tmp_path, f"{label}-{jobs}",
                    jobs=jobs, cache_path=store,
                )
                report = aggregate_events(events)
                assert report.failures == len(result.failures) > 0
                assert reconcile(report) == []
                traces.append(events)
        assert compare_profiles(traces[0], traces[2]) == []
        assert compare_profiles(traces[1], traces[3]) == []


class TestResumedRuns:
    def test_resumed_points_emit_no_work_events(self, tmp_path):
        config = _reduced("fig2a")
        store = tmp_path / "store.sqlite"
        run_experiment(config, cache_path=str(store))
        path = tmp_path / "resume.jsonl"
        result = run_experiment(
            config,
            cache_path=str(store),
            trace_path=str(path),
        )
        events = read_trace(path)
        report = aggregate_events(events)
        # Every unit came from the store: lifecycle events and one
        # unit-store hit per unit only, and the trace still reconciles
        # with its own point.end records.
        assert len(result.points) == 2
        assert report.counts.get("solve", 0) == 0
        assert report.counts.get("protocol.verdict", 0) == 0
        names = {e["name"] for e in events}
        assert names == {
            "run.start", "run.end", "point.end", "cache.unit_store.hits"
        }
        assert report.cache_counters == {
            "unit_store.hits": len(result.points) * config.sets_per_point
        }
        assert reconcile(report) == []

    def test_untraced_run_writes_nothing(self, tmp_path):
        config = _reduced("fig2a")
        run_experiment(config)
        assert list(tmp_path.iterdir()) == []
