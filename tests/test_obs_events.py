"""Unit tests for the trace-event contract, recorder, and JSONL sink."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import events as events_module
from repro.obs import (
    EVENT_VERSION,
    EventRecorder,
    TraceWriter,
    active_recorder,
    emit,
    is_runtime_event,
    read_trace,
    recording,
    require_valid_event,
    span,
    validate_event,
)


class TestSchema:
    def test_minimal_event_valid(self):
        assert validate_event({"v": EVENT_VERSION, "name": "solve", "t": 1.5}) == []

    def test_full_event_valid(self):
        event = {
            "v": EVENT_VERSION,
            "name": "solve",
            "t": 1.5,
            "dur": 0.25,
            "run": "abc",
            "point": 0,
            "unit": 3,
            "task": "t1",
            "f": {"status": "optimal"},
        }
        assert validate_event(event) == []

    def test_rejects_wrong_version(self):
        assert validate_event({"v": 99, "name": "x", "t": 0.0})

    def test_rejects_missing_required(self):
        assert validate_event({"v": EVENT_VERSION, "t": 0.0})
        assert validate_event({"v": EVENT_VERSION, "name": "x"})

    def test_rejects_unknown_fields(self):
        problems = validate_event(
            {"v": EVENT_VERSION, "name": "x", "t": 0.0, "bogus": 1}
        )
        assert any("bogus" in p for p in problems)

    def test_rejects_bad_types(self):
        assert validate_event({"v": EVENT_VERSION, "name": "x", "t": "now"})
        assert validate_event(
            {"v": EVENT_VERSION, "name": "x", "t": 0.0, "dur": -1.0}
        )
        assert validate_event(
            {"v": EVENT_VERSION, "name": "x", "t": 0.0, "point": -1}
        )
        assert validate_event({"v": EVENT_VERSION, "name": "", "t": 0.0})
        assert validate_event("not a dict")

    def test_require_valid_event_raises(self):
        with pytest.raises(ObservabilityError, match="somewhere"):
            require_valid_event({"v": 0}, where="somewhere")

    def test_runtime_prefixes(self):
        assert is_runtime_event("worker.unit")
        assert is_runtime_event("gen.tasksets")
        assert is_runtime_event("highs.retry")
        assert is_runtime_event("highs.solve")
        assert not is_runtime_event("solve")
        assert not is_runtime_event("cache.hits")
        assert not is_runtime_event("fixpoint.iteration")


class TestRecorder:
    def test_emit_builds_valid_events(self):
        rec = EventRecorder()
        rec.emit("solve", dur=0.5, task="t1", status="optimal")
        (event,) = rec.events
        assert validate_event(event) == []
        assert event["f"] == {"status": "optimal"}

    def test_span_measures_duration(self):
        ticks = iter([10.0, 13.5, 13.5])  # start, dur end, event t
        rec = EventRecorder(clock=lambda: next(ticks))
        with rec.span("phase"):
            pass
        (event,) = rec.events
        assert event["dur"] == 3.5

    def test_raising_body_leaves_the_recorder_stack_as_it_was(self):
        before = list(events_module._RECORDERS)
        with pytest.raises(RuntimeError):
            with recording():
                raise RuntimeError("body fails")
        assert events_module._RECORDERS == before

    def test_drain_clears_buffer(self):
        rec = EventRecorder()
        rec.emit("a")
        assert len(rec.drain()) == 1
        assert rec.events == ()

    def test_module_emit_is_noop_without_scope(self):
        assert active_recorder() is None
        emit("solve")  # must not raise
        with span("phase"):
            pass

    def test_recording_scope_captures_module_emits(self):
        with recording() as rec:
            emit("solve", status="optimal")
            with span("phase", task="t1"):
                emit("inner")
        names = [e["name"] for e in rec.events]
        assert names == ["solve", "inner", "phase"]
        assert active_recorder() is None

    def test_module_emit_forwards_full_envelope(self):
        # Regression pin: point/unit passed through the module-level
        # emit() must land as top-level envelope keys, not in f{}.
        with recording() as rec:
            emit("solve", dur=0.5, task="t1", point=3, unit=1, note="x")
        (event,) = rec.events
        assert event["point"] == 3
        assert event["unit"] == 1
        assert event["task"] == "t1"
        assert event["dur"] == 0.5
        assert event["f"] == {"note": "x"}
        assert validate_event(event) == []

    def test_nested_scopes_innermost_wins(self):
        with recording() as outer:
            with recording() as inner:
                emit("x")
            emit("y")
        assert [e["name"] for e in inner.events] == ["x"]
        assert [e["name"] for e in outer.events] == ["y"]


class TestTraceWriter:
    def test_writes_valid_sorted_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, run_id="run1") as writer:
            writer.emit("run.start", points=2)
            writer.emit("solve", dur=0.1, point=1, unit=0, task="t1")
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            event = json.loads(line)
            assert validate_event(event) == []
            assert event["run"] == "run1"
            assert list(event) == sorted(event)

    def test_write_events_stamps_correlation_ids(self, tmp_path):
        rec = EventRecorder()
        rec.emit("solve", task="t1")
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, run_id="r") as writer:
            writer.write_events(rec.drain(), point=3, unit=7)
        (event,) = read_trace(path)
        assert (event["point"], event["unit"], event["run"]) == (3, 7, "r")

    def test_closed_writer_refuses_writes(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.jsonl", run_id="r")
        writer.close()
        with pytest.raises(ObservabilityError, match="closed"):
            writer.emit("x")

    def test_unopenable_path_raises(self, tmp_path):
        with pytest.raises(ObservabilityError, match="cannot open"):
            TraceWriter(tmp_path / "no" / "dir" / "t.jsonl", run_id="r")

    def test_invalid_event_rejected_before_write(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, run_id="r") as writer:
            with pytest.raises(ObservabilityError):
                writer.write({"v": EVENT_VERSION, "name": "x"})  # no t
        assert path.read_text() == ""


class TestReadTrace:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ObservabilityError, match="not found"):
            read_trace(tmp_path / "nope.jsonl")

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"v": 1, "name": "a", "t": 0}\nnot json\n')
        with pytest.raises(ObservabilityError, match=":2"):
            read_trace(path)

    def test_invalid_event_reports_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"v": 1, "name": "a", "t": 0}\n{"v": 1}\n')
        with pytest.raises(ObservabilityError, match=":2"):
            read_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"v": 1, "name": "a", "t": 0}\n\n')
        assert len(read_trace(path)) == 1
