"""Per-module AST rule: float time equality."""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from repro.lint.engine import LintViolation, SourceModule

#: Identifiers whose values are time-valued floats in this codebase
#: (windows, response times, phase durations, objectives). Exact
#: ``==``/``!=`` on any of them compares iterated floating-point
#: results and must go through a tolerance instead.
TIME_VALUED_NAMES = frozenset({
    "window",
    "wcrt",
    "response",
    "new_response",
    "deadline",
    "period",
    "exec_time",
    "copy_in",
    "copy_out",
    "total_cost",
    "elapsed",
    "elapsed_seconds",
    "objective",
    "slack",
    "horizon",
    "release_time",
    "finish_time",
    "start_time",
    "arrival_time",
})

#: Methods whose bodies legitimately compare parameters exactly:
#: they *define* value identity (dataclass-style semantics), they do
#: not test convergence of computed quantities.
_IDENTITY_METHODS = frozenset({"__eq__", "__ne__", "__hash__"})


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node


def _is_time_valued(node: ast.expr) -> str | None:
    """The time-valued identifier an operand reads, if any."""
    if isinstance(node, ast.Name) and node.id in TIME_VALUED_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in TIME_VALUED_NAMES:
        return node.attr
    return None


def float_time_equality_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Flag ``==``/``!=`` where either side is a time-valued float."""
    violations: list[LintViolation] = []
    for module in modules.values():
        exempt_ranges: list[tuple[int, int]] = []
        for func in _functions(module.tree):
            if getattr(func, "name", "") in _IDENTITY_METHODS:
                exempt_ranges.append(
                    (func.lineno, func.end_lineno or func.lineno)
                )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            if any(lo <= node.lineno <= hi for lo, hi in exempt_ranges):
                continue
            for operand in [node.left, *node.comparators]:
                name = _is_time_valued(operand)
                if name is not None:
                    violations.append(LintViolation(
                        rule="float-time-equality",
                        path=module.path,
                        line=node.lineno,
                        message=(
                            f"exact ==/!= on time-valued float {name!r}; "
                            "compare with a tolerance (convergence_eps / "
                            "pytest.approx) instead"
                        ),
                    ))
                    break
    return violations
