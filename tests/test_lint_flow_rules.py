"""Tests for the trace contract, the lint loader and the lint CLI.

The trace contract is checked at runtime: :func:`validate_event` holds
every record to ``EVENT_NAMES``, and the session hook in
``tests/conftest.py`` reports what a full run left uncovered. The cases
here are the defects the contract exists to catch.
"""

import dataclasses

import pytest

from repro.analysis.cache import COUNTER_NAMES
from repro.errors import ObservabilityError
from repro.experiments.config import ExperimentConfig, SweepPoint
from repro.experiments.report import render_sweep_table
from repro.experiments.runner import PointResult, SweepResult
from repro.generator.taskset_gen import GenerationConfig
from repro.lint import SourceModule, load_project
from repro.obs import EVENT_VERSION, EventRecorder, TraceWriter, recording
from repro.obs import events as obs
from repro.obs.events import EVENT_NAMES, validate_event

#: The defects an emit site can commit, one record each.
UNKNOWN_NAME = {"v": EVENT_VERSION, "name": "fixture.unknown.event", "t": 0.0}
UNDECLARED_KEY = {
    "v": EVENT_VERSION, "name": "run.end", "t": 0.0, "f": {"bogus_key": 1},
}
WRONG_TYPE = {
    "v": EVENT_VERSION, "name": "point.end", "t": 0.0,
    "f": {"x": "not-a-number", "failures": 0},
}


def _written(tmp_path, record):
    """What ``TraceWriter.write`` does with one record: the error it
    raises (``None`` if none) and the file it leaves."""
    path = tmp_path / "t.jsonl"
    with TraceWriter(path, run_id="r") as writer:
        try:
            writer.write(record)
        except ObservabilityError as exc:
            return str(exc), path.read_text()
    return None, path.read_text()


class TestTraceContractRule:
    def test_clean_tree_passes(self, trace_contract_gaps):
        # Every counter has its cache.<name> entry, so a run that emits
        # each entry and bumps each counter leaves no gap.
        assert trace_contract_gaps(set(EVENT_NAMES), set(COUNTER_NAMES)) == []

    def test_unknown_event_name_flagged(self, tmp_path):
        assert validate_event(UNKNOWN_NAME) == [
            "event 'fixture.unknown.event' is not in EVENT_NAMES"
        ]
        error, text = _written(tmp_path, UNKNOWN_NAME)
        assert "fixture.unknown.event" in error
        assert text == ""

    def test_undeclared_payload_key_flagged(self, tmp_path):
        assert validate_event(UNDECLARED_KEY) == [
            "payload key 'bogus_key' is not declared for 'run.end'"
        ]
        error, text = _written(tmp_path, UNDECLARED_KEY)
        assert "bogus_key" in error
        assert text == ""

    def test_literal_type_mismatch_flagged(self, tmp_path):
        assert validate_event(WRONG_TYPE) == [
            "payload key 'x' of 'point.end' must be number, "
            "got 'not-a-number'"
        ]
        error, text = _written(tmp_path, WRONG_TYPE)
        assert "must be number" in error
        assert text == ""

    def test_optional_keys_may_be_null_and_any_key_absent(self):
        ok = {
            "v": EVENT_VERSION, "name": "solve", "t": 0.0,
            "f": {"mode": "nls", "rows": None},
        }
        assert validate_event(ok) == []
        required_null = {**ok, "f": {"mode": None}}
        assert validate_event(required_null)
        a_bool_is_no_int = {**ok, "f": {"degradation": True}}
        assert validate_event(a_bool_is_no_int)

    def test_dead_catalogue_entry_flagged(self, trace_contract_gaps):
        emitted = set(EVENT_NAMES) - {"run.end"}
        assert trace_contract_gaps(emitted, set(COUNTER_NAMES)) == [
            "EVENT_NAMES entry 'run.end' was emitted by no test"
        ]

    def test_renamed_emit_fails_contract(self, tmp_path):
        # A counter whose event is renamed away from its cache.<name>
        # entry no longer validates.
        with TraceWriter(tmp_path / "t.jsonl", run_id="r") as writer:
            writer.emit("cache.hits", amount=1)
            with pytest.raises(ObservabilityError, match="cache.renamed"):
                writer.emit("cache.renamed", amount=1)

    def test_emit_sink_must_accept_envelope(self, tmp_path):
        # Every sink stamps the envelope as top-level fields, never
        # inside the f payload.
        envelope = {"dur": 0.5, "task": "t1", "point": 3, "unit": 1}
        recorder = EventRecorder()
        recorder.emit("solve", mode="nls", **envelope)
        with recording() as scoped:
            obs.emit("solve", mode="nls", **envelope)
        path = tmp_path / "t.jsonl"
        with TraceWriter(path, run_id="r") as writer:
            writer.emit("solve", mode="nls", **envelope)
        records = [recorder.events[0], scoped.events[0]]
        records += obs.read_trace(path)
        for record in records:
            assert {key: record[key] for key in envelope} == envelope
            assert record["f"] == {"mode": "nls"}

    def test_unlisted_counter_bump_flagged(self, trace_contract_gaps):
        bumped = set(COUNTER_NAMES) | {"mystery"}
        assert trace_contract_gaps(set(EVENT_NAMES), bumped) == [
            "counter 'mystery' was bumped but is not in COUNTER_NAMES"
        ]
        unbumped = set(COUNTER_NAMES) - {"hits"}
        assert trace_contract_gaps(set(EVENT_NAMES), unbumped) == [
            "COUNTER_NAMES entry 'hits' was bumped by no test"
        ]

    def test_report_must_aggregate_stats(self):
        # Each counter the analysis surfaces shows in the sweep footer.
        config = ExperimentConfig(
            name="stats", x_label="U",
            points=(SweepPoint(0.3, GenerationConfig(utilization=0.3)),),
            sets_per_point=1,
        )
        point = PointResult(
            x=0.3, ratios={p: 1.0 for p in config.protocols},
            sets_evaluated=1, elapsed_seconds=0.0,
        )

        def table(stats):
            result = SweepResult(
                config=config,
                points=(dataclasses.replace(point, analysis_stats=stats),),
            )
            return render_sweep_table(result)

        # The cache line shows once anything was looked up.
        looked_up = {"misses": 1}
        silent = table(looked_up)
        for name in COUNTER_NAMES:
            assert table({**looked_up, name: 7}) != silent, name


class TestProjectLoading:
    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "good.py").write_text("x = 1\n")
        (package / "bad.py").write_text("def broken(:\n")
        project = load_project(package)
        assert [v.rule for v in project.findings] == ["parse-error"]
        assert project.findings[0].path.endswith("bad.py")
        names = set(project.modules)
        assert any(name.endswith("good") for name in names)
        assert not any(name.endswith("bad") for name in names)


class TestCliExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invariants hold" in captured.err

    def test_findings_exit_one(self, capsys, monkeypatch):
        from repro.cli import main
        from repro.lint import engine
        from repro.lint.engine import LoadedProject

        bad = SourceModule.parse(
            "repro.bad", "bad.py", "def f(window, last):\n    return window == last\n"
        )
        monkeypatch.setattr(
            engine, "load_project",
            lambda: LoadedProject(modules={"repro.bad": bad}),
        )
        code = main(["lint", "--rule", "float-time-equality"])
        captured = capsys.readouterr()
        assert code == 1
        assert "float-time-equality" in captured.out
        assert "1 finding(s)" in captured.err
