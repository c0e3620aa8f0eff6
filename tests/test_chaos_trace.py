"""Chaos: corrupted JSONL trace lines and the lenient reader.

The ``trace.corrupt`` site garbles a line as :class:`TraceWriter`
appends it — ``truncate`` writes only a prefix with no newline (the
crash-mid-append signature; the next append glues onto it), ``garbage``
writes a non-JSON line. Contract: the strict reader refuses the file,
the lenient reader recovers every intact event and reports exactly what
was lost via :class:`TraceCorruption`, and every injection left a
schema-valid ``fault.trace.corrupt`` marker *before* the damage.
"""

import json

import pytest

from repro.errors import ObservabilityError
from repro.experiments import ExperimentConfig, SweepPoint, run_experiment
from repro.faults import FaultPlan, FaultSpec, injecting
from repro.generator.taskset_gen import GenerationConfig
from repro.obs import (
    TraceWriter,
    profile_trace,
    read_trace,
    read_trace_lenient,
    recording,
    validate_event,
)


def _write_clean(path, count=4):
    with TraceWriter(path, run_id="r1") as writer:
        for index in range(count):
            writer.emit("worker.unit", point=0, unit=index, pid=index)


class TestInjectedCorruption:
    def test_garbage_line_mid_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        plan = FaultPlan(
            specs=(FaultSpec(site="trace.corrupt", mode="garbage", after=1),),
            name="garble",
        )
        with injecting(plan):
            _write_clean(path, count=4)
        with pytest.raises(ObservabilityError, match="invalid JSON"):
            read_trace(path)
        events, corruption = read_trace_lenient(path)
        assert corruption.bad_json == 1
        assert corruption.truncated_final == 0
        assert corruption.total == 1
        # Three of the four events survived, plus the injection marker.
        assert [e["name"] for e in events].count("worker.unit") == 3
        markers = [e for e in events if e["name"] == "fault.trace.corrupt"]
        assert len(markers) == 1
        assert validate_event(markers[0]) == []
        assert markers[0]["f"] == {"mode": "garbage", "name": "worker.unit"}

    def test_injection_reaches_an_active_recorder(self, tmp_path):
        # Injection.fire reports the fault to the recorder in scope, as
        # it does for every site.
        plan = FaultPlan(
            specs=(FaultSpec(site="trace.corrupt", mode="garbage"),),
            name="garble",
        )
        with injecting(plan), recording() as recorder:
            _write_clean(tmp_path / "t.jsonl", count=1)
        (event,) = recorder.events
        assert event["name"] == "fault.trace.corrupt"
        assert event["f"] == {"mode": "garbage", "spec": 0, "plan": "garble"}

    def test_truncated_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        plan = FaultPlan(
            specs=(
                FaultSpec(site="trace.corrupt", mode="truncate", after=3),
            ),
            name="tear-last",
        )
        with injecting(plan):
            _write_clean(path, count=4)
        assert not path.read_text().endswith("\n")  # torn mid-append
        events, corruption = read_trace_lenient(path)
        assert corruption.bad_json == 1
        assert corruption.truncated_final == 1
        assert [e["name"] for e in events].count("worker.unit") == 3

    def test_truncated_middle_line_glues_onto_next(self, tmp_path):
        # A mid-file truncation has no newline, so the following append
        # glues onto it: one corrupt physical line, two lost records.
        path = tmp_path / "t.jsonl"
        plan = FaultPlan(
            specs=(
                FaultSpec(site="trace.corrupt", mode="truncate", after=1),
            ),
            name="tear-mid",
        )
        with injecting(plan):
            _write_clean(path, count=4)
        events, corruption = read_trace_lenient(path)
        assert corruption.bad_json == 1
        assert corruption.truncated_final == 0
        assert [e["name"] for e in events].count("worker.unit") == 2


class TestLenientReader:
    def test_version_mismatch_counted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_clean(path, count=2)
        with open(path, "a") as handle:
            handle.write(
                json.dumps({"v": 99, "name": "future.event", "t": 0.0}) + "\n"
            )
        with pytest.raises(ObservabilityError, match="invalid trace event"):
            read_trace(path)
        events, corruption = read_trace_lenient(path)
        assert corruption.version_mismatch == 1
        assert len(events) == 2

    def test_invalid_schema_counted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_clean(path, count=2)
        with open(path, "a") as handle:
            handle.write(json.dumps({"v": 1, "name": "run.end"}) + "\n")  # no t
            handle.write(json.dumps(["not", "an", "object"]) + "\n")
        _, corruption = read_trace_lenient(path)
        assert corruption.invalid_schema == 2

    def test_clean_trace_has_zero_counters(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_clean(path)
        events, corruption = read_trace_lenient(path)
        assert corruption.total == 0
        assert corruption.truncated_final == 0
        assert events == read_trace(path)

    def test_profile_renders_corruption_section(self, tmp_path):
        path = tmp_path / "t.jsonl"
        plan = FaultPlan(
            specs=(FaultSpec(site="trace.corrupt", mode="garbage", after=1),),
            name="garble",
        )
        with injecting(plan):
            _write_clean(path, count=4)
        rendered = profile_trace(str(path), lenient=True)
        assert "trace corruption" in rendered
        assert "bad_json" in rendered


class TestEndToEnd:
    @pytest.fixture
    def config(self):
        return ExperimentConfig(
            name="chaos-trace",
            x_label="U",
            points=(
                SweepPoint(
                    0.3, GenerationConfig(n=3, utilization=0.3, gamma=0.1)
                ),
            ),
            sets_per_point=2,
            seed=7,
            method="closed_form",
        )

    def test_sweep_survives_trace_corruption(self, config, tmp_path):
        baseline = run_experiment(config)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="trace.corrupt", mode="garbage", after=5, times=2
                ),
            ),
            name="garble-sweep",
        )
        trace = tmp_path / "trace.jsonl"
        result = run_experiment(
            config, fault_plan=plan, trace_path=str(trace)
        )
        # The run's *results* are untouched — only the log is damaged.
        assert [p.ratios for p in result.points] == [
            p.ratios for p in baseline.points
        ]
        with pytest.raises(ObservabilityError):
            read_trace(trace)
        events, corruption = read_trace_lenient(trace)
        assert corruption.bad_json == 2
        markers = [e for e in events if e["name"] == "fault.trace.corrupt"]
        assert len(markers) == 2
        # Counters reconcile modulo the corruption: exactly as many
        # events are missing as the reader counted corrupt.
        clean_trace = tmp_path / "clean.jsonl"
        run_experiment(config, trace_path=str(clean_trace))
        clean_events = read_trace(clean_trace)
        assert len(events) - len(markers) == len(clean_events) - corruption.total
