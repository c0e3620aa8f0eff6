"""Screen-soundness direction check (the ``screen-soundness`` rule).

The LP-relaxation screens introduced in PR 4/6 are *upper bounds*:
safe to use for "this task set is schedulable anyway" short-circuits,
never a substitute for the exact MILP optimum. Both cache tiers
enforce the ordering dynamically — the sqlite store with its
rank-ordered upsert (``WHERE excluded.rank > entries.rank``), the
memory tier with the mirror guard in
:meth:`repro.analysis.cache.AnalysisCache.put` — but nothing stopped
a new code path from *producing* an ``("lp", bound)`` entry in the
first place without thinking about soundness.

This rule closes the production side: every call that stores a
literal ``("lp", ...)`` tuple (directly or through a local whose
reaching definitions include one) into a ``put``/``store`` sink must
sit inside a function carrying the
:func:`repro.analysis.cache.bound_producer` decorator. Bare parameter
forwarding (``cache.put`` passing ``value`` through to the persistent
tier) is exempt — the producer was tagged at the origin.

Two structural guards keep the dynamic enforcement honest:
``ENTRY_RANKS`` in ``repro.analysis.store`` must rank ``lp`` strictly
below ``lb`` (target-stop lower bounds) and ``lb`` strictly below
``milp``, and the upsert SQL must retain its rank comparison.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.dataflow import FunctionFlow, project_model
from repro.lint.engine import LintViolation, SourceModule

RULE = "screen-soundness"

STORE_MODULE = "repro.analysis.store"
DECORATOR = "bound_producer"
SINKS = frozenset({"put", "store"})
#: Entry tags of ``ENTRY_RANKS`` from weakest to exact.
RANK_ORDER = ("lp", "lb", "milp")


def _violation(
    path: str, line: int, message: str, severity: str = "error"
) -> LintViolation:
    return LintViolation(
        rule=RULE, path=path, line=line, message=message, severity=severity
    )


def _is_lp_tuple(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Tuple)
        and bool(node.elts)
        and isinstance(node.elts[0], ast.Constant)
        and node.elts[0].value == "lp"
    )


def screen_soundness_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Every lp-entry producer must be explicitly tagged."""
    model = project_model(modules)
    violations: list[LintViolation] = []
    flows: dict[str, FunctionFlow] = {}

    for site in model.calls:
        func = site.call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in SINKS
            and len(site.call.args) >= 2
        ):
            continue
        value = site.call.args[1]
        lp_producing = _is_lp_tuple(value)
        if (
            not lp_producing
            and isinstance(value, ast.Name)
            and site.enclosing is not None
        ):
            flow = flows.get(site.enclosing.qualname)
            if flow is None:
                flow = FunctionFlow(site.enclosing.node)
                flows[site.enclosing.qualname] = flow
            stmt = flow.statement_of(site.call)
            if stmt is not None:
                lp_producing = any(
                    _is_lp_tuple(definition)
                    for definition in flow.reaching(stmt, value.id)
                )
        if not lp_producing:
            continue
        if site.enclosing is None:
            violations.append(_violation(
                site.path, site.call.lineno,
                'an ("lp", ...) entry is stored at module level; '
                "screening bounds may only be produced by "
                f"@{DECORATOR}-tagged functions",
            ))
        elif not site.enclosing.decorated_with(DECORATOR):
            violations.append(_violation(
                site.path, site.call.lineno,
                f'{site.enclosing.name}() stores an ("lp", ...) '
                f"screening entry but is not decorated with "
                f"@{DECORATOR}; tag it (and review that its bound is "
                "a true upper bound) or store an exact entry",
            ))

    violations.extend(_check_store_guards(modules))
    return violations


def _check_store_guards(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    store = modules.get(STORE_MODULE)
    if store is None:
        return [_violation(
            "<module set>", 0,
            f"cannot check rank guards: module {STORE_MODULE} missing",
        )]
    violations: list[LintViolation] = []

    ranks: object = None
    ranks_line = 1
    for node in store.tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if isinstance(target, ast.Name) and target.id == "ENTRY_RANKS":
            value = getattr(node, "value", None)
            if value is not None:
                try:
                    ranks = ast.literal_eval(value)
                    ranks_line = node.lineno
                except ValueError:
                    ranks = None
    if not (
        isinstance(ranks, dict)
        and all(isinstance(ranks.get(tag), int) for tag in RANK_ORDER)
        and all(
            ranks[low] < ranks[high]
            for low, high in zip(RANK_ORDER, RANK_ORDER[1:])
        )
    ):
        violations.append(_violation(
            store.path, ranks_line,
            "ENTRY_RANKS must rank 'lp' < 'lb' < 'milp' strictly; the "
            "upsert soundness order depends on it",
        ))

    guarded = any(
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "excluded.rank > entries.rank" in node.value
        for node in ast.walk(store.tree)
    )
    if not guarded:
        violations.append(_violation(
            store.path, 1,
            "the store upsert no longer carries the "
            "'excluded.rank > entries.rank' guard; a screening bound "
            "could overwrite an exact optimum",
        ))
    return violations
