"""Project invariant linter: the AST rules no runtime check can replace.

The sweep's bit-identity promise dies if worker code reads the wall
clock, and a convergence test that compares iterated floats exactly is
a tolerance bug waiting to happen. Neither shows in a test run that
happens to pass, so these two rules read the source instead. They run
as ``repro lint`` and in CI alongside ruff and mypy.

The engine (:mod:`repro.lint.engine`) parses the whole package once
and hands every rule the full module mapping.

Rules
-----
``worker-determinism``
    No unseeded randomness or wall-clock-dependent values in code
    statically reachable from the worker work units. See
    :mod:`repro.lint.determinism`.
``float-time-equality``
    No ``==``/``!=`` between time-valued floats (windows, WCRTs,
    phases); exact comparison of iterated fixpoint values is a
    tolerance bug waiting to happen.

The project's other invariants are checked where they run: the trace
contract by :func:`repro.obs.events.validate_event` and the test
suite's session hook, cache-key completeness by a perturbation test
over ``Task`` and ``AnalysisOptions`` fields, and mutable default
arguments by ruff's ``B006``.
"""

from repro.lint.engine import (
    RULES,
    LintViolation,
    LoadedProject,
    SourceModule,
    load_project,
    run_lint,
)

__all__ = [
    "RULES",
    "LintViolation",
    "LoadedProject",
    "SourceModule",
    "load_project",
    "run_lint",
]
