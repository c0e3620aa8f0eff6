"""Cache-key completeness rules.

PR 2's bit-identity guarantee rests on one claim: the analysis-cache
digest (:func:`repro.analysis.cache._task_signature` plus the budgets
the caller supplies) captures *every* semantic input of the MILP
formulation. Nothing structural enforces that — someone adding, say, a
``preemption_cost`` field to :class:`~repro.model.task.Task` and
reading it in the formulation would silently make two different MILPs
share a cache entry.

``cache-key-completeness`` closes that loop statically: every ``Task``
attribute read by the formulation layer must either appear in
``_task_signature`` or be on the documented exemption list below. Both
sides are read from the AST, so deleting a field from the digest (or
reading a new one in the formulation) fails the lint immediately.

``cache-key-solver-options`` guards the two channels through which a
stored or memoised answer could outlive its configuration:

* every :class:`~repro.analysis.interface.AnalysisOptions` field must
  be read by ``_solver_signature`` (it scopes cache keys to the solver
  configuration) or carry a written exemption explaining why two runs
  differing only in that field may share entries — and every exemption
  must name a field, so a removed option leaves no stale entry behind;
* :mod:`repro.analysis.store` must define ``SCHEMA_VERSION`` and gate
  its connection setup on it — the cross-run unit store may never
  serve rows written under a different encoding.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.engine import LintViolation, SourceModule

#: Module holding the digest and the function that signs one task.
CACHE_MODULE = "repro.analysis.cache"
SIGNATURE_FUNCTION = "_task_signature"

#: Modules whose Task-attribute reads define the MILP's semantic inputs.
FORMULATION_MODULES = (
    "repro.analysis.proposed.formulation",
    "repro.analysis.proposed.intervals",
)

#: Module defining the Task dataclass whose fields we track.
TASK_MODULE = "repro.model.task"

#: Task attributes that may be read by the formulation without
#: appearing in ``_task_signature`` — each covered by the key through
#: another channel, or provably non-semantic. Grow this list only with
#: a written justification; an empty reason fails closed.
EXEMPT_TASK_ATTRS: dict[str, str] = {
    "name": "labels variables only; the cache is content-addressed",
    "priority": "enters the key as each task's hp/lp side flag",
    "eta": "arrival curves enter the key via the integer budgets",
    "arrivals": "arrival curves enter the key via the integer budgets",
    "period": "arrival curves enter the key via the integer budgets",
    "deadline": "gates verdicts outside the MILP; never shapes the model",
    "footprint": "partitioning-time data; never read by the formulation",
    "total_cost": "derived from (l, C, u), all of which are digested",
    "utilization": "derived from exec_time and period",
    "total_utilization": "derived from digested fields and period",
    "trivially_unschedulable": "verdict shortcut; never shapes the model",
}

#: Module defining AnalysisOptions and the analysis that signs them.
OPTIONS_MODULE = "repro.analysis.interface"
ANALYSIS_MODULE = "repro.analysis.proposed.response_time"
SOLVER_SIGNATURE_FUNCTION = "_solver_signature"

#: Module holding the unit store whose schema version we check.
STORE_MODULE = "repro.analysis.store"

#: AnalysisOptions fields that may stay out of ``_solver_signature`` —
#: each provably unable to change any *individual* solve's optimum.
#: Grow this list only with a written justification; an empty reason
#: fails closed.
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


def task_attribute_names(task_module: SourceModule) -> set[str]:
    """Field, property, and method names of the Task class."""
    names: set[str] = set()
    for node in ast.walk(task_module.tree):
        if isinstance(node, ast.ClassDef) and node.name == "Task":
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    names.add(item.target.id)
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("__"):
                        names.add(item.name)
    return names


def signature_attributes(cache_module: SourceModule) -> set[str]:
    """Task attributes the digest's ``_task_signature`` reads."""
    for node in ast.walk(cache_module.tree):
        if (
            isinstance(node, ast.FunctionDef)
            and node.name == SIGNATURE_FUNCTION
        ):
            if not node.args.args:
                return set()
            param = node.args.args[0].arg
            return {
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == param
            }
    return set()


def cache_key_completeness_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Uncovered Task-attribute reads in the formulation layer."""
    required = (CACHE_MODULE, TASK_MODULE, *FORMULATION_MODULES)
    missing = [name for name in required if name not in modules]
    if missing:
        return [LintViolation(
            rule="cache-key-completeness",
            path="<module set>",
            line=0,
            message=f"cannot check: module(s) {missing} not in the lint set",
        )]

    fields = task_attribute_names(modules[TASK_MODULE])
    covered = signature_attributes(modules[CACHE_MODULE])
    if not covered:
        return [LintViolation(
            rule="cache-key-completeness",
            path=modules[CACHE_MODULE].path,
            line=1,
            message=(
                f"{SIGNATURE_FUNCTION} not found or digests no Task "
                "attribute: the cache key cannot be complete"
            ),
        )]

    violations: list[LintViolation] = []
    for module_name in FORMULATION_MODULES:
        module = modules[module_name]
        flagged: set[tuple[int, str]] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if attr not in fields or attr in covered:
                continue
            if EXEMPT_TASK_ATTRS.get(attr):
                continue
            if (node.lineno, attr) in flagged:
                continue
            flagged.add((node.lineno, attr))
            violations.append(LintViolation(
                rule="cache-key-completeness",
                path=module.path,
                line=node.lineno,
                message=(
                    f"Task attribute {attr!r} is read by the formulation "
                    f"but missing from {SIGNATURE_FUNCTION} in "
                    f"{CACHE_MODULE}; two semantically different MILPs "
                    "could share a cache entry. Digest it or add a "
                    "justified exemption."
                ),
            ))
    return violations


def options_fields(options_module: SourceModule) -> dict[str, int]:
    """AnalysisOptions field names with their definition lines."""
    fields: dict[str, int] = {}
    for node in ast.walk(options_module.tree):
        if isinstance(node, ast.ClassDef) and node.name == "AnalysisOptions":
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    fields[item.target.id] = item.lineno
    return fields


def solver_signature_options(analysis_module: SourceModule) -> set[str]:
    """``options`` attributes ``_solver_signature`` reads.

    Matches both ``self.options.<field>`` and ``options.<field>`` on a
    local alias, so refactoring the method body does not defeat the
    rule.
    """
    for node in ast.walk(analysis_module.tree):
        if (
            isinstance(node, ast.FunctionDef)
            and node.name == SOLVER_SIGNATURE_FUNCTION
        ):
            return {
                sub.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and (
                    (
                        isinstance(sub.value, ast.Attribute)
                        and sub.value.attr == "options"
                    )
                    or (
                        isinstance(sub.value, ast.Name)
                        and sub.value.id == "options"
                    )
                )
            }
    return set()


def _store_schema_ok(store_module: SourceModule) -> tuple[bool, bool]:
    """``(defined, used)`` for ``SCHEMA_VERSION`` in the store module."""
    defined = False
    for node in store_module.tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SCHEMA_VERSION"
            for t in node.targets
        ):
            defined = True
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ) and node.target.id == "SCHEMA_VERSION":
            defined = True
    used = any(
        isinstance(node, ast.Name)
        and node.id == "SCHEMA_VERSION"
        and isinstance(node.ctx, ast.Load)
        for node in ast.walk(store_module.tree)
    )
    return defined, used


def solver_options_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Option fields missing from the solver signature, and the
    unit store's schema-version gate."""
    required = (OPTIONS_MODULE, ANALYSIS_MODULE, STORE_MODULE)
    missing = [name for name in required if name not in modules]
    if missing:
        return [LintViolation(
            rule="cache-key-solver-options",
            path="<module set>",
            line=0,
            message=f"cannot check: module(s) {missing} not in the lint set",
        )]

    violations: list[LintViolation] = []
    fields = options_fields(modules[OPTIONS_MODULE])
    signed = solver_signature_options(modules[ANALYSIS_MODULE])
    if not fields:
        violations.append(LintViolation(
            rule="cache-key-solver-options",
            path=modules[OPTIONS_MODULE].path,
            line=1,
            message="AnalysisOptions defines no fields; rule cannot anchor",
        ))
    if not signed:
        violations.append(LintViolation(
            rule="cache-key-solver-options",
            path=modules[ANALYSIS_MODULE].path,
            line=1,
            message=(
                f"{SOLVER_SIGNATURE_FUNCTION} not found or reads no "
                "options field: cache keys cannot be scoped to the "
                "solver configuration"
            ),
        ))
    for name, line in sorted(fields.items()):
        if name in signed or EXEMPT_OPTION_FIELDS.get(name):
            continue
        violations.append(LintViolation(
            rule="cache-key-solver-options",
            path=modules[OPTIONS_MODULE].path,
            line=line,
            message=(
                f"AnalysisOptions.{name} is not read by "
                f"{SOLVER_SIGNATURE_FUNCTION}; two runs differing only "
                "in it would share cache entries. Sign it or add a "
                "justified exemption."
            ),
        ))
    for name in sorted(set(EXEMPT_OPTION_FIELDS) - set(fields)):
        violations.append(LintViolation(
            rule="cache-key-solver-options",
            path=modules[OPTIONS_MODULE].path,
            line=1,
            message=(
                f"EXEMPT_OPTION_FIELDS exempts {name!r}, which is no "
                "AnalysisOptions field; delete the stale exemption."
            ),
        ))
    defined, used = _store_schema_ok(modules[STORE_MODULE])
    if not defined:
        violations.append(LintViolation(
            rule="cache-key-solver-options",
            path=modules[STORE_MODULE].path,
            line=1,
            message=(
                "unit store defines no module-level SCHEMA_VERSION; "
                "a format change could silently serve stale entries"
            ),
        ))
    elif not used:
        violations.append(LintViolation(
            rule="cache-key-solver-options",
            path=modules[STORE_MODULE].path,
            line=1,
            message=(
                "SCHEMA_VERSION is defined but never read; the store "
                "does not gate its contents on the schema version"
            ),
        ))
    return violations
