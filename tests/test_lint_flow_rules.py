"""Tests for the trace-contract rule, baselines, SARIF, and CLI.

Fixture modules under ``tests/lint_fixtures/`` are valid-syntax true
positives; they are parsed and injected into (a copy of) the real
module mapping so rules see both the genuine anchors (EVENT_NAMES,
COUNTER_NAMES, the store) and the planted violation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    LintViolation,
    SourceModule,
    load_baseline,
    load_project,
    run_lint,
    suppress_baseline,
    to_sarif,
    write_baseline,
)
from repro.lint.engine import load_repo_modules

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def _with_fixture(stem, name=None):
    """Real module mapping plus one parsed fixture module."""
    modules = dict(load_repo_modules())
    path = FIXTURES / f"{stem}.py"
    module_name = name or f"repro.lintfixture.{stem}"
    modules[module_name] = SourceModule.parse(
        module_name, str(path), path.read_text()
    )
    return modules


def _fixture_only(stem):
    path = FIXTURES / f"{stem}.py"
    name = f"repro.lintfixture.{stem}"
    return {name: SourceModule.parse(name, str(path), path.read_text())}


class TestTraceContractRule:
    def test_clean_tree_passes(self):
        assert run_lint(rules=["trace-contract"]) == []

    def test_unknown_event_name_flagged(self):
        violations = run_lint(
            _with_fixture("trace_bad"), rules=["trace-contract"]
        )
        assert any(
            "fixture.unknown.event" in v.message and v.severity == "error"
            for v in violations
        )

    def test_undeclared_payload_key_flagged(self):
        violations = run_lint(
            _with_fixture("trace_bad"), rules=["trace-contract"]
        )
        assert any("bogus_key" in v.message for v in violations)

    def test_literal_type_mismatch_flagged(self):
        violations = run_lint(
            _with_fixture("trace_bad"), rules=["trace-contract"]
        )
        assert any(
            "'not-a-number'" in v.message and "number" in v.message
            for v in violations
        )

    def test_dynamic_event_name_warns_not_crashes(self):
        violations = run_lint(
            _with_fixture("trace_dynamic"), rules=["trace-contract"]
        )
        dynamic = [
            v for v in violations
            if "dynamic" in v.message and "trace_dynamic" in v.path
        ]
        assert len(dynamic) == 1
        assert dynamic[0].severity == "warning"
        # The honest warnings are the only findings the fixture adds
        # (its unresolved call site also cascades into the real
        # forwarding closure via the name-based over-approximation).
        assert all(v.severity == "warning" for v in violations)

    def test_dead_catalogue_entry_flagged(self):
        modules = dict(load_repo_modules())
        runner = modules["repro.experiments.runner"]
        source = Path(runner.path).read_text()
        target = 'writer.emit("run.end", dur=time.perf_counter() - run_start)'
        assert target in source
        modules["repro.experiments.runner"] = SourceModule.parse(
            runner.name, runner.path, source.replace(target, "pass")
        )
        violations = run_lint(modules, rules=["trace-contract"])
        assert any(
            "dead schema entry" in v.message
            and "run.end" in v.message
            for v in violations
        )

    def test_renamed_emit_fails_contract(self):
        modules = dict(load_repo_modules())
        cache = modules["repro.analysis.cache"]
        source = Path(cache.path).read_text()
        tampered = source.replace('f"cache.{name}"', '"cache.renamed"')
        modules["repro.analysis.cache"] = SourceModule.parse(
            cache.name, cache.path, tampered
        )
        violations = run_lint(modules, rules=["trace-contract"])
        assert any("cache.renamed" in v.message for v in violations)

    def test_emit_sink_must_accept_envelope(self):
        modules = dict(load_repo_modules())
        events = modules["repro.obs.events"]
        source = Path(events.path).read_text()
        # Strip `point`/`unit` from the module-level emit's signature
        # and forwarding call — the drift this rule exists to prevent.
        assert source.count("    point: int | None = None,") >= 2
        tampered = source.replace(
            "    point: int | None = None,\n    unit: int | None = None,\n"
            "    **fields: object,\n"
            ") -> None:\n"
            '    """Emit an event to the active recorder; no-op when '
            "tracing is off.",
            "    **fields: object,\n"
            ") -> None:\n"
            '    """Emit an event to the active recorder; no-op when '
            "tracing is off.",
            1,
        )
        assert tampered != source
        modules["repro.obs.events"] = SourceModule.parse(
            events.name, events.path, tampered
        )
        violations = run_lint(modules, rules=["trace-contract"])
        assert any(
            "envelope parameter" in v.message for v in violations
        )

    def test_unlisted_counter_bump_flagged(self):
        modules = dict(load_repo_modules())
        cache = modules["repro.analysis.cache"]
        source = Path(cache.path).read_text()
        tampered = source.replace(
            '            self.bump("hits")\n',
            '            self.bump("hits")\n'
            '            self.bump("mystery")\n',
            1,
        )
        assert tampered != source
        modules["repro.analysis.cache"] = SourceModule.parse(
            cache.name, cache.path, tampered
        )
        violations = run_lint(modules, rules=["trace-contract"])
        assert any(
            "mystery" in v.message and "COUNTER_NAMES" in v.message
            for v in violations
        )

    def test_report_must_aggregate_stats(self):
        modules = dict(load_repo_modules())
        report = modules["repro.experiments.report"]
        source = Path(report.path).read_text()
        tampered = source.replace("aggregate_analysis_stats(", "_skipped(")
        assert tampered != source
        modules["repro.experiments.report"] = SourceModule.parse(
            report.name, report.path, tampered
        )
        violations = run_lint(modules, rules=["trace-contract"])
        assert any(
            "aggregate_analysis_stats" in v.message for v in violations
        )


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

    def test_excluded_paths_skipped(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "keep.py").write_text("x = 1\n")
        (package / "skipme.py").write_text("def broken(:\n")
        project = load_project(package, exclude=("skipme",))
        assert project.findings == []
        assert len(project.skipped) == 1
        assert project.skipped[0].endswith("skipme.py")


class TestFingerprintsAndBaseline:
    def test_fingerprint_ignores_line_number(self):
        a = LintViolation("r", "p.py", 10, "msg")
        b = LintViolation("r", "p.py", 99, "msg")
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_distinguishes_rule_path_message(self):
        base = LintViolation("r", "p.py", 1, "msg")
        assert base.fingerprint != LintViolation("r2", "p.py", 1, "msg").fingerprint
        assert base.fingerprint != LintViolation("r", "q.py", 1, "msg").fingerprint
        assert base.fingerprint != LintViolation("r", "p.py", 1, "other").fingerprint

    def test_baseline_round_trip_suppresses(self, tmp_path):
        violations = [
            LintViolation("r", "p.py", 1, "grandfathered"),
            LintViolation("r", "p.py", 2, "fresh"),
        ]
        baseline_path = tmp_path / "baseline.json"
        write_baseline(violations[:1], baseline_path)
        baseline = load_baseline(baseline_path)
        remaining = suppress_baseline(violations, baseline)
        assert [v.message for v in remaining] == ["fresh"]

    def test_baseline_entries_carry_metadata(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(
            [LintViolation("r", "p.py", 1, "msg")], baseline_path
        )
        data = json.loads(baseline_path.read_text())
        assert data[0]["rule"] == "r"
        assert data[0]["path"] == "p.py"
        assert data[0]["message"] == "msg"

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a list"}')
        with pytest.raises(ValueError, match="JSON list"):
            load_baseline(bad)
        bad.write_text("not json at all")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_baseline(bad)
        with pytest.raises(ValueError, match="cannot read"):
            load_baseline(tmp_path / "missing.json")

    def test_shipped_baseline_is_empty(self):
        shipped = REPO_ROOT / "tools" / "lint_baseline.json"
        assert json.loads(shipped.read_text()) == []


class TestSarif:
    def test_sarif_shape(self):
        log = to_sarif([
            LintViolation("rule-a", "src/x.py", 7, "broken", "error"),
            LintViolation("rule-b", "src/y.py", 0, "iffy", "warning"),
        ])
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            "rule-a", "rule-b",
        ]
        first, second = run["results"]
        assert first["ruleId"] == "rule-a"
        assert first["level"] == "error"
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/x.py"
        assert location["region"]["startLine"] == 7
        # Line 0 (project-wide findings) clamps to SARIF's 1-minimum.
        assert (
            second["locations"][0]["physicalLocation"]["region"]["startLine"]
            == 1
        )
        assert "reproLint/v1" in first["fingerprints"]


class TestCliExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "--strict"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invariants hold" in captured.err

    def test_findings_exit_one(self, capsys, monkeypatch):
        import repro.lint as lint_pkg
        from repro.cli import main
        from repro.lint.engine import LoadedProject

        bad = SourceModule.parse(
            "repro.bad", "bad.py", "def f(x=[]):\n    return x\n"
        )
        monkeypatch.setattr(
            lint_pkg, "load_project",
            lambda: LoadedProject(modules={"repro.bad": bad}),
        )
        code = main(["lint", "--rule", "mutable-default-argument"])
        captured = capsys.readouterr()
        assert code == 1
        assert "mutable-default-argument" in captured.out
        assert "1 finding(s): 1 error(s), 0 warning(s)" in captured.err

    def test_warnings_fail_only_strict(self, capsys, monkeypatch):
        import repro.lint as lint_pkg
        from repro.cli import main
        from repro.lint.engine import LoadedProject

        modules = _with_fixture("trace_dynamic")

        monkeypatch.setattr(
            lint_pkg, "load_project",
            lambda: LoadedProject(modules=modules),
        )
        assert main(["lint", "--rule", "trace-contract"]) == 0
        capsys.readouterr()
        assert main(["lint", "--rule", "trace-contract", "--strict"]) == 1
        assert "warning" in capsys.readouterr().out

    def test_bad_baseline_exits_two(self, capsys):
        from repro.cli import main

        assert main(["lint", "--baseline", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_update_baseline_requires_baseline_path(self, capsys):
        from repro.cli import main

        assert main(["lint", "--update-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_sarif_written(self, tmp_path):
        from repro.cli import main

        sarif_path = tmp_path / "out.sarif"
        assert main(["lint", "--sarif", str(sarif_path)]) == 0
        log = json.loads(sarif_path.read_text())
        assert log["runs"][0]["results"] == []

    def test_standalone_tool_strict_baseline_clean(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "lint_rules.py"),
                "--strict",
                "--baseline",
                str(REPO_ROOT / "tools" / "lint_baseline.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""
