"""Project invariant linter (call-graph-aware AST rules).

Generic linters cannot know that this repo's analysis cache must digest
*every* semantic input of the MILP formulation, that code reachable
from the worker work units must be deterministic, or that every trace
event must match its declared schema. These rules encode exactly those
invariants; they run as ``repro lint``, as ``python
tools/lint_rules.py``, and in CI alongside ruff and mypy.

The engine (:mod:`repro.lint.engine`) parses the whole package once
and hands every rule the full module mapping; the cross-function rules
share a :class:`~repro.lint.dataflow.ProjectModel` symbol table and
interprocedural literal resolution through the call graph
(:mod:`repro.lint.callgraph`).
Findings carry a severity (warnings fail only ``--strict``) and a
stable fingerprint for baseline suppression; ``repro lint`` can emit
SARIF for CI annotation.

Rules
-----
``cache-key-completeness``
    Every :class:`repro.model.task.Task` attribute read by the MILP
    formulation must be covered by the analysis-cache digest (or be on
    the documented exemption list). See :mod:`repro.lint.cache_key`.
``cache-key-solver-options``
    Every :class:`repro.analysis.interface.AnalysisOptions` field must
    enter ``_solver_signature`` (or carry a written exemption), and
    the unit store must define and gate on its ``SCHEMA_VERSION`` —
    together they keep stored verdicts from aliasing across solver
    configurations or store formats.
``worker-determinism``
    No unseeded randomness or wall-clock-dependent values in code
    statically reachable from the worker work units. See
    :mod:`repro.lint.determinism`.
``float-time-equality``
    No ``==``/``!=`` between time-valued floats (windows, WCRTs,
    phases); exact comparison of iterated fixpoint values is a
    tolerance bug waiting to happen.
``mutable-default-argument``
    No mutable default arguments (shared-state aliasing across calls).
``trace-contract``
    Every ``emit()``/``span()`` site resolves (through the call
    graph) to event names declared in ``EVENT_NAMES``, with declared
    payload keys and literal types; no dead catalogue entries; emit
    sinks accept the full envelope; ``bump`` counters reconcile with
    ``COUNTER_NAMES`` and the sweep report. See
    :mod:`repro.lint.trace_contract`.
"""

from repro.lint.engine import (
    RULES,
    LintViolation,
    LoadedProject,
    SourceModule,
    load_baseline,
    load_project,
    load_repo_modules,
    run_lint,
    suppress_baseline,
    to_sarif,
    write_baseline,
)

__all__ = [
    "RULES",
    "LintViolation",
    "LoadedProject",
    "SourceModule",
    "load_baseline",
    "load_project",
    "load_repo_modules",
    "run_lint",
    "suppress_baseline",
    "to_sarif",
    "write_baseline",
]
