"""Project invariant linter (flow- and call-graph-aware AST rules).

Generic linters cannot know that this repo's analysis cache must digest
*every* semantic input of the MILP formulation, that code reachable
from the worker work units must be deterministic, or that every
``os.replace`` needs an fsync proof. These rules encode exactly those
invariants; they run as ``repro lint``, as ``python
tools/lint_rules.py``, and in CI alongside ruff and mypy.

The engine (:mod:`repro.lint.engine`) parses the whole package once
and hands every rule the full module mapping; the flow-aware rules
share a :class:`~repro.lint.dataflow.ProjectModel` symbol table, an
intraprocedural CFG with reaching-definitions and must-precede-call
analyses (:mod:`repro.lint.dataflow`), and interprocedural literal
resolution through the call graph (:mod:`repro.lint.callgraph`).
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
    the persistent store must define and gate on its
    ``SCHEMA_VERSION`` — together they keep cross-run cache entries
    from aliasing across solver configurations or store formats.
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
``fork-safety``
    Nothing pickled across a process boundary (a pool ``submit`` or a
    ``Process(target=...)`` spawn) holds a database connection, open
    file handle, or unseeded RNG; the
    module-level scope stacks are only mutated inside
    ``@contextmanager`` functions. See :mod:`repro.lint.fork_safety`.
``durable-write``
    Dataflow proof that every ``os.replace`` is preceded on all paths
    by an fsync of the source file and followed by a directory sync.
    See :mod:`repro.lint.durable_write`.
``screen-soundness``
    Every producer of ``("lp", bound)`` screening entries carries the
    ``@bound_producer`` tag, and the store keeps its rank-ordered
    upsert guards. See :mod:`repro.lint.screen_soundness`.
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
