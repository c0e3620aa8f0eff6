"""Tests for the project invariant linter (repro.lint)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import RULES, LintViolation, SourceModule, run_lint
from repro.lint.cache_key import (
    cache_key_completeness_rule,
    solver_options_rule,
)
from repro.lint.determinism import (
    import_edges,
    reachable_modules,
    worker_determinism_rule,
)
from repro.lint.engine import load_repo_modules
from repro.lint.rules import float_time_equality_rule, mutable_default_rule

REPO_ROOT = Path(__file__).resolve().parents[1]


def _module(name, source):
    return SourceModule.parse(name, f"{name.replace('.', '/')}.py", source)


class TestEngine:
    def test_repo_lints_clean(self):
        # The headline invariant: the shipped tree passes its own linter.
        violations = run_lint()
        assert violations == [], "\n".join(v.render() for v in violations)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            run_lint(rules=["no-such-rule"])

    def test_rule_subset_runs_only_selected(self):
        bad = _module("m", "def f(x=[]):\n    return x\n")
        only_float = run_lint({"m": bad}, rules=["float-time-equality"])
        assert only_float == []
        only_mutable = run_lint({"m": bad}, rules=["mutable-default-argument"])
        assert len(only_mutable) == 1

    def test_all_registered_rules_discoverable(self):
        assert set(RULES) == {
            "cache-key-completeness",
            "cache-key-solver-options",
            "worker-determinism",
            "float-time-equality",
            "mutable-default-argument",
            "trace-contract",
        }

    def test_load_repo_modules_names(self):
        modules = load_repo_modules()
        assert "repro.milp.model" in modules
        assert "repro.lint" in modules  # __init__ collapses to the package
        assert "repro.analysis.cache" in modules


class TestMutableDefaultRule:
    def test_flags_literal_and_call_defaults(self):
        src = (
            "def f(x=[]):\n    return x\n"
            "def g(*, y=dict()):\n    return y\n"
        )
        violations = mutable_default_rule({"m": _module("m", src)})
        assert [v.line for v in violations] == [1, 3]

    def test_allows_none_and_immutable_defaults(self):
        src = "def f(x=None, y=(), z=0.0, w='s'):\n    return x, y, z, w\n"
        assert mutable_default_rule({"m": _module("m", src)}) == []

    def test_flags_lambda_defaults(self):
        src = "h = lambda x=[]: x\n"
        violations = mutable_default_rule({"m": _module("m", src)})
        assert len(violations) == 1


class TestFloatTimeEqualityRule:
    def test_flags_equality_on_time_valued_names(self):
        src = "def conv(window, last):\n    return window == last\n"
        violations = float_time_equality_rule({"m": _module("m", src)})
        assert len(violations) == 1
        assert "window" in violations[0].message

    def test_flags_attribute_reads(self):
        src = "def same(a, b):\n    return a.wcrt != b.wcrt\n"
        violations = float_time_equality_rule({"m": _module("m", src)})
        assert len(violations) == 1

    def test_ordering_comparisons_allowed(self):
        src = "def fits(window, deadline):\n    return window <= deadline\n"
        assert float_time_equality_rule({"m": _module("m", src)}) == []

    def test_identity_methods_exempt(self):
        src = (
            "class T:\n"
            "    def __eq__(self, other):\n"
            "        return other.period == self.period\n"
            "    def __hash__(self):\n"
            "        return hash(self.period)\n"
        )
        assert float_time_equality_rule({"m": _module("m", src)}) == []

    def test_non_time_names_ignored(self):
        src = "def pick(kind):\n    return kind == 'nls'\n"
        assert float_time_equality_rule({"m": _module("m", src)}) == []


class TestWorkerDeterminismRule:
    ROOT = "repro.experiments.runner"

    def _graph(self, worker_source, unreachable_source=None):
        modules = {
            self.ROOT: _module(self.ROOT, "import repro.work\n"),
            "repro.work": _module("repro.work", worker_source),
        }
        if unreachable_source is not None:
            modules["repro.island"] = _module(
                "repro.island", unreachable_source
            )
        return modules

    def test_import_edges_resolve_relative(self):
        mod = _module(
            "repro.experiments.runner",
            "from . import config\nfrom ..milp import model\n",
        )
        assert import_edges(mod) >= {
            "repro.experiments.config",
            "repro.milp.model",
        }

    def test_reachability_is_transitive(self):
        modules = {
            self.ROOT: _module(self.ROOT, "import repro.a\n"),
            "repro.a": _module("repro.a", "import repro.b\n"),
            "repro.b": _module("repro.b", "x = 1\n"),
            "repro.island": _module("repro.island", "import random\n"),
        }
        reached = reachable_modules(modules)
        assert reached == {self.ROOT, "repro.a", "repro.b"}

    def test_unreachable_module_not_flagged(self):
        modules = self._graph("x = 1\n", unreachable_source="import random\n")
        assert worker_determinism_rule(modules) == []

    def test_stdlib_random_import_flagged(self):
        violations = worker_determinism_rule(self._graph("import random\n"))
        assert len(violations) == 1
        assert "seeded numpy Generator" in violations[0].message

    def test_wall_clock_call_flagged(self):
        src = "import time\n\ndef stamp():\n    return time.time()\n"
        violations = worker_determinism_rule(self._graph(src))
        assert [v.line for v in violations] == [4]

    def test_from_time_import_alias_flagged(self):
        src = "from time import time as now\n\ndef f():\n    return now()\n"
        violations = worker_determinism_rule(self._graph(src))
        assert len(violations) == 1

    def test_perf_counter_allowed(self):
        src = "import time\n\ndef f():\n    return time.perf_counter()\n"
        assert worker_determinism_rule(self._graph(src)) == []

    def test_unseeded_default_rng_flagged(self):
        src = (
            "from numpy.random import default_rng\n"
            "def f():\n    return default_rng()\n"
        )
        violations = worker_determinism_rule(self._graph(src))
        assert len(violations) == 1
        assert "unseeded" in violations[0].message

    def test_seeded_default_rng_allowed(self):
        src = (
            "import numpy as np\n"
            "def f(seed):\n    return np.random.default_rng(seed)\n"
        )
        assert worker_determinism_rule(self._graph(src)) == []

    def test_legacy_global_rng_flagged(self):
        src = "import numpy as np\n\ndef f():\n    return np.random.random()\n"
        violations = worker_determinism_rule(self._graph(src))
        assert len(violations) == 1
        assert "legacy" in violations[0].message

    def test_uuid4_flagged(self):
        src = "import uuid\n\ndef f():\n    return uuid.uuid4()\n"
        assert len(worker_determinism_rule(self._graph(src))) == 1


class TestCacheKeyCompletenessRule:
    def test_real_digest_is_complete(self):
        assert cache_key_completeness_rule(load_repo_modules()) == []

    def test_removing_semantic_field_fails_lint(self):
        # Acceptance pin: strip `latency_sensitive` out of the cache
        # digest; the formulation still reads it, so two semantically
        # different MILPs would collide — the lint must fail.
        modules = dict(load_repo_modules())
        cache = modules["repro.analysis.cache"]
        source = Path(cache.path).read_text()
        assert "task.latency_sensitive" in source
        tampered = source.replace("task.latency_sensitive", "True")
        modules["repro.analysis.cache"] = SourceModule.parse(
            cache.name, cache.path, tampered
        )
        violations = cache_key_completeness_rule(modules)
        assert violations, "tampered digest must fail the lint"
        assert all("latency_sensitive" in v.message for v in violations)

    def test_missing_module_reports_instead_of_passing(self):
        modules = dict(load_repo_modules())
        del modules["repro.analysis.cache"]
        violations = cache_key_completeness_rule(modules)
        assert len(violations) == 1
        assert "cannot check" in violations[0].message

    def test_synthetic_uncovered_read(self):
        modules = dict(load_repo_modules())
        formulation = modules["repro.analysis.proposed.formulation"]
        tampered = (
            formulation.tree and Path(formulation.path).read_text()
        ) + "\n\ndef _peek(task):\n    return task.footprint_bytes\n"
        task_src = Path(modules["repro.model.task"].path).read_text()
        task_src = task_src.replace(
            "class Task:", "class Task:\n    footprint_bytes: int", 1
        )
        modules["repro.model.task"] = SourceModule.parse(
            "repro.model.task", "task.py", task_src
        )
        modules["repro.analysis.proposed.formulation"] = SourceModule.parse(
            formulation.name, formulation.path, tampered
        )
        violations = cache_key_completeness_rule(modules)
        assert any("footprint_bytes" in v.message for v in violations)

    def test_exemptions_have_written_justifications(self):
        from repro.lint.cache_key import EXEMPT_TASK_ATTRS

        assert all(reason.strip() for reason in EXEMPT_TASK_ATTRS.values())


class TestSolverOptionsRule:
    def test_real_signature_covers_every_option(self):
        assert solver_options_rule(load_repo_modules()) == []

    def test_unsigned_new_option_field_fails_lint(self):
        # Acceptance pin: an AnalysisOptions field the signature does
        # not read means two analyses differing only in it would share
        # cache entries — the lint must fail.
        modules = dict(load_repo_modules())
        options = modules["repro.analysis.interface"]
        source = Path(options.path).read_text()
        tampered = source.replace(
            "class AnalysisOptions:",
            "class AnalysisOptions:\n    solver_threads: int = 1",
            1,
        )
        modules["repro.analysis.interface"] = SourceModule.parse(
            options.name, options.path, tampered
        )
        violations = solver_options_rule(modules)
        assert any("solver_threads" in v.message for v in violations)

    def test_dropping_schema_version_gate_fails_lint(self):
        modules = dict(load_repo_modules())
        store = modules["repro.analysis.store"]
        source = Path(store.path).read_text()
        assert "SCHEMA_VERSION = " in source
        tampered = source.replace("SCHEMA_VERSION = ", "_SCHEMA_VERSION = ")
        modules["repro.analysis.store"] = SourceModule.parse(
            store.name, store.path, tampered
        )
        violations = solver_options_rule(modules)
        assert any("SCHEMA_VERSION" in v.message for v in violations)

    def test_unused_schema_version_fails_lint(self):
        modules = dict(load_repo_modules())
        tampered = "SCHEMA_VERSION = 1\n"  # defined but gating nothing
        modules["repro.analysis.store"] = SourceModule.parse(
            "repro.analysis.store", "store.py", tampered
        )
        violations = solver_options_rule(modules)
        assert any("never read" in v.message for v in violations)

    def test_unsigned_protocol_knobs_fail_lint(self):
        # The protocol-zoo acceptance fixture: a signature frozen at
        # its pre-zoo shape (tests/lint_fixtures/solver_options_bad.py)
        # omits preemption_thresholds and regulation; the rule must
        # flag exactly those two fields, or threshold/bandwidth sweeps
        # could share cache entries across differing knobs.
        fixture = REPO_ROOT / "tests" / "lint_fixtures" / "solver_options_bad.py"
        modules = dict(load_repo_modules())
        modules["repro.analysis.proposed.response_time"] = SourceModule.parse(
            "repro.analysis.proposed.response_time",
            str(fixture),
            fixture.read_text(),
        )
        violations = solver_options_rule(modules)
        flagged = {
            field
            for v in violations
            for field in ("preemption_thresholds", "regulation")
            if f"AnalysisOptions.{field}" in v.message
        }
        assert flagged == {"preemption_thresholds", "regulation"}
        # The solver knobs the fixture does sign stay clean.
        assert not any("time_limit" in v.message for v in violations)

    def test_stale_exemption_fails_lint(self):
        fixture = (
            REPO_ROOT / "tests" / "lint_fixtures" / "options_stale_exemption.py"
        )
        modules = dict(load_repo_modules())
        modules["repro.analysis.interface"] = SourceModule.parse(
            "repro.analysis.interface", str(fixture), fixture.read_text()
        )
        violations = solver_options_rule(modules)
        assert [v.message for v in violations] == [
            "EXEMPT_OPTION_FIELDS exempts 'convergence_eps', which is no "
            "AnalysisOptions field; delete the stale exemption."
        ]

    def test_missing_module_reports_instead_of_passing(self):
        modules = dict(load_repo_modules())
        del modules["repro.analysis.store"]
        violations = solver_options_rule(modules)
        assert len(violations) == 1
        assert "cannot check" in violations[0].message

    def test_exemptions_have_written_justifications(self):
        from repro.lint.cache_key import EXEMPT_OPTION_FIELDS

        assert all(reason.strip() for reason in EXEMPT_OPTION_FIELDS.values())


class TestViolationRendering:
    def test_render_is_path_line_rule(self):
        v = LintViolation("r", "a/b.py", 7, "msg")
        assert v.render() == "a/b.py:7: [r] msg"

    def test_run_lint_sorts_by_location(self):
        src = "def f(x=[]):\n    return x\ndef g(y=[]):\n    return y\n"
        out = run_lint({"m": _module("m", src)})
        assert [v.line for v in out] == sorted(v.line for v in out)


class TestEntryPoints:
    def test_cli_lint_subcommand_clean(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        captured = capsys.readouterr()
        # Findings own stdout; the all-clear is commentary on stderr.
        assert captured.out == ""
        assert "invariants hold" in captured.err

    def test_standalone_tool_clean(self):
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "lint_rules.py")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert "all project invariants hold" in proc.stderr

    def test_standalone_tool_lists_rules(self):
        proc = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "lint_rules.py"),
                "--list",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert set(proc.stdout.split()) == set(RULES)
