"""Tests for the project invariant linter (``repro.lint``) and for the
cache-key contract, which is checked at runtime.

The cache-key classes perturb one input at a time. A ``Task`` field must
change the memo key of every delay model it changes, and an
``AnalysisOptions`` field must change ``_solver_signature``. The
alternative is a written exemption in this file.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import cache as cache_module
from repro.analysis.cache import case_b_key
from repro.analysis.interface import AnalysisOptions, RegulationConfig
from repro.analysis.proposed import formulation
from repro.analysis.proposed.response_time import ProposedAnalysis, _Query
from repro.curves import SporadicArrival
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.lint import RULES, LintViolation, SourceModule, load_project, run_lint
from repro.lint.determinism import (
    import_edges,
    reachable_modules,
    worker_determinism_rule,
)
from repro.lint.rules import float_time_equality_rule
from repro.model.task import Task
from repro.model.taskset import TaskSet

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
        bad = {
            "repro.experiments.runner": _module(
                "repro.experiments.runner",
                "import random\n\ndef f(window, last):\n"
                "    return window == last\n",
            ),
        }
        only_float = run_lint(bad, rules=["float-time-equality"])
        assert [v.rule for v in only_float] == ["float-time-equality"]
        only_worker = run_lint(bad, rules=["worker-determinism"])
        assert [v.rule for v in only_worker] == ["worker-determinism"]

    def test_all_registered_rules_discoverable(self):
        assert set(RULES) == {"worker-determinism", "float-time-equality"}

    def test_load_repo_modules_names(self):
        modules = load_project().modules
        assert "repro.milp.model" in modules
        assert "repro.lint" in modules  # __init__ collapses to the package
        assert "repro.analysis.cache" in modules


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


# ----------------------------------------------------------------------
# cache-key contract (checked at runtime)
# ----------------------------------------------------------------------
#: Task fields that may change a delay model without changing its memo
#: key. Each needs a written reason; an entry that names no field fails.
EXEMPT_TASK_ATTRS: dict[str, str] = {}

#: One perturbation per non-exempt ``Task`` field, applied to
#: :data:`_PERTURBED`, the second-highest-priority task of the set.
TASK_PERTURBATIONS = {
    "name": lambda t: dataclasses.replace(t, name=f"{t.name}_renamed"),
    "exec_time": lambda t: dataclasses.replace(t, exec_time=t.exec_time * 1.5),
    "copy_in": lambda t: dataclasses.replace(t, copy_in=t.copy_in + 0.5),
    "copy_out": lambda t: dataclasses.replace(t, copy_out=t.copy_out + 0.5),
    "deadline": lambda t: dataclasses.replace(t, deadline=t.deadline * 0.8),
    "priority": lambda t: dataclasses.replace(t, priority=-1),
    "arrivals": lambda t: dataclasses.replace(
        t, arrivals=SporadicArrival(t.period / 2)
    ),
    "latency_sensitive": lambda t: t.as_latency_sensitive(
        not t.latency_sensitive
    ),
    "footprint": lambda t: dataclasses.replace(t, footprint=4096),
}
_PERTURBED = 1

_COMPILED_ARRAYS = (
    "objective", "objective_constant", "row_matrix", "row_lower",
    "row_upper", "var_lower", "var_upper", "integrality",
)


def _seeded_tasks() -> list[Task]:
    """Four generated tasks in priority order, the lowest marked LS."""
    (taskset,) = generate_tasksets(
        GenerationConfig(n=4, utilization=0.4, gamma=0.3), count=1, seed=11
    )
    return list(taskset.with_ls_marks([taskset[-1].name]))


def _delay_models(tasks: list[Task]) -> list[tuple[str, list]]:
    """Memo key and compiled arrays of each task's delay models: the
    model at ``t_D`` and, for an LS task, its case-(b) model."""
    taskset = TaskSet(tasks)
    analysis = ProposedAnalysis()
    models = []
    for task in tasks:
        query = _Query(analysis, taskset, task)
        window = query.deadline_window
        key, _ = analysis._delay_key(query, window)
        queries = [(key, window, query.mode)]
        if task.latency_sensitive:
            queries.append((
                case_b_key(taskset, task, analysis._solver_signature()),
                window, formulation.AnalysisMode.LS_CASE_B,
            ))
        for key, window, mode in queries:
            compiled = formulation.build_delay_milp(
                taskset, task, window, mode, hp_wcrt=query.hp_wcrt
            ).model.compile()
            models.append(
                (key, [getattr(compiled, name) for name in _COMPILED_ARRAYS])
            )
    return models


def _unkeyed_task_fields(exempt=EXEMPT_TASK_ATTRS) -> list[str]:
    """Task fields that change some delay model but not its memo key."""
    fields = {field.name for field in dataclasses.fields(Task)}
    findings = [
        f"EXEMPT_TASK_ATTRS exempts {name!r}, which is no Task field"
        for name in sorted(set(exempt) - fields)
    ]
    tasks = _seeded_tasks()
    base = _delay_models(tasks)
    for name in sorted(fields):
        if exempt.get(name):
            continue
        if name not in TASK_PERTURBATIONS:
            findings.append(f"Task.{name} has no perturbation; add one")
            continue
        perturbed = list(tasks)
        perturbed[_PERTURBED] = TASK_PERTURBATIONS[name](tasks[_PERTURBED])
        for (key, arrays), (new_key, new_arrays) in zip(
            base, _delay_models(perturbed)
        ):
            same = all(map(np.array_equal, arrays, new_arrays))
            if key == new_key and not same:
                findings.append(
                    f"Task.{name} changes a delay model but not its memo key"
                )
                break
    return findings


#: AnalysisOptions fields that may stay out of ``_solver_signature``:
#: each provably unable to change any *individual* solve's optimum.
EXEMPT_OPTION_FIELDS: dict[str, str] = {
    "max_iterations": (
        "bounds how many windows the fixpoint visits, never the optimum "
        "of any one windowed MILP the cache memoises"
    ),
    "stop_at_deadline": (
        "aborts the iteration between solves; each solved window's "
        "optimum is unchanged"
    ),
    "convergence_eps": (
        "decides when the iteration stops consuming values, not what "
        "any solve returns"
    ),
}

#: One perturbation per non-exempt ``AnalysisOptions`` field.
OPTION_PERTURBATIONS = {
    "time_limit": 5.0,
    "preemption_thresholds": (("t0", 1),),
    "regulation": RegulationConfig(budget=1.0, period=2.0),
}


def _unsigned_options(
    options_type=AnalysisOptions,
    perturbations=OPTION_PERTURBATIONS,
    exempt=EXEMPT_OPTION_FIELDS,
) -> list[str]:
    """Option fields that leave ``_solver_signature`` unchanged."""
    fields = {field.name for field in dataclasses.fields(options_type)}
    findings = [
        f"EXEMPT_OPTION_FIELDS exempts {name!r}, which is no "
        "AnalysisOptions field"
        for name in sorted(set(exempt) - fields)
    ]
    base = ProposedAnalysis(options_type())._solver_signature()
    for name in sorted(fields):
        if exempt.get(name):
            continue
        if name not in perturbations:
            findings.append(
                f"AnalysisOptions.{name} has no perturbation; add one"
            )
            continue
        options = dataclasses.replace(
            options_type(), **{name: perturbations[name]}
        )
        if ProposedAnalysis(options)._solver_signature() == base:
            findings.append(
                f"AnalysisOptions.{name} does not change _solver_signature"
            )
    return findings


class TestCacheKeyCompletenessRule:
    def test_real_digest_is_complete(self):
        assert _unkeyed_task_fields() == []

    def test_removing_semantic_field_fails_lint(self, monkeypatch):
        # A digest that forgets copy_out lets two tasks differing only
        # in it share one memo entry.
        monkeypatch.setattr(
            cache_module,
            "_task_signature",
            lambda task: (task.copy_in, task.exec_time, task.latency_sensitive),
        )
        assert _unkeyed_task_fields() == [
            "Task.copy_out changes a delay model but not its memo key"
        ]

    def test_synthetic_uncovered_read(self, monkeypatch):
        # A formulation that starts reading an undigested field.
        build = formulation.build_delay_milp

        def reads_footprint(taskset, task, window, mode, hp_wcrt=None):
            built = build(taskset, task, window, mode, hp_wcrt=hp_wcrt)
            built.model.var("footprint", 0.0, float(task.footprint or 1))
            return built

        monkeypatch.setattr(formulation, "build_delay_milp", reads_footprint)
        assert _unkeyed_task_fields() == [
            "Task.footprint changes a delay model but not its memo key"
        ]

    def test_exemptions_have_written_justifications(self):
        assert all(reason.strip() for reason in EXEMPT_TASK_ATTRS.values())
        assert _unkeyed_task_fields({"period": "derived"}) == [
            "EXEMPT_TASK_ATTRS exempts 'period', which is no Task field"
        ]


class TestSolverOptionsRule:
    def test_real_signature_covers_every_option(self):
        assert _unsigned_options() == []

    def test_unsigned_new_option_field_fails_lint(self):
        grown = dataclasses.make_dataclass(
            "AnalysisOptions",
            [("solver_threads", int, dataclasses.field(default=1))],
            bases=(AnalysisOptions,),
            frozen=True,
        )
        perturbations = {**OPTION_PERTURBATIONS, "solver_threads": 4}
        assert _unsigned_options(grown, perturbations) == [
            "AnalysisOptions.solver_threads does not change _solver_signature"
        ]

    def test_unsigned_protocol_knobs_fail_lint(self, monkeypatch):
        # A signature frozen at its pre-protocol-zoo shape: without the
        # threshold and regulation knobs, the threshold and regulated
        # analyses would share entries across differing knobs.
        monkeypatch.setattr(
            ProposedAnalysis,
            "_solver_signature",
            lambda self: (self.method, self.options.time_limit),
        )
        assert _unsigned_options() == [
            "AnalysisOptions.preemption_thresholds does not change "
            "_solver_signature",
            "AnalysisOptions.regulation does not change _solver_signature",
        ]

    def test_stale_exemption_fails_lint(self):
        # An AnalysisOptions that lost convergence_eps while the
        # exemption table still names it.
        stale = dataclasses.make_dataclass(
            "AnalysisOptions",
            [
                (field.name, field.type, dataclasses.field(default=field.default))
                for field in dataclasses.fields(AnalysisOptions)
                if field.name != "convergence_eps"
            ],
            frozen=True,
        )
        assert _unsigned_options(stale) == [
            "EXEMPT_OPTION_FIELDS exempts 'convergence_eps', which is no "
            "AnalysisOptions field"
        ]

    def test_exemptions_have_written_justifications(self):
        assert all(reason.strip() for reason in EXEMPT_OPTION_FIELDS.values())

class TestViolationRendering:
    def test_render_is_path_line_rule(self):
        v = LintViolation("r", "a/b.py", 7, "msg")
        assert v.render() == "a/b.py:7: [r] msg"

    def test_run_lint_sorts_by_location(self):
        src = (
            "def f(window, last):\n    return window == last\n"
            "def g(wcrt, last):\n    return wcrt != last\n"
        )
        out = run_lint({"m": _module("m", src)})
        assert len(out) == 2
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
        proc = _repro_lint()
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert "all project invariants hold" in proc.stderr

    def test_standalone_tool_lists_rules(self):
        proc = _repro_lint("--help")
        assert proc.returncode == 0
        assert "{float-time-equality,worker-determinism}" in proc.stdout


def _repro_lint(*args):
    """``python -m repro lint``, run as CI runs it."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
    )
