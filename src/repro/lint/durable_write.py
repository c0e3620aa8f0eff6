"""Durable-write discipline (the ``durable-write`` rule).

The chaos tests prove the sweep-export write protocol durable
*dynamically*; this rule pins the protocol *statically* so a
refactoring cannot quietly drop a sync. For every ``os.replace(src,
dst)`` in the project the rule demands a dataflow proof of the full
temp-write → fsync(file) → rename → fsync(dir) sequence:

* on **every** control-flow path reaching the rename there must be an
  ``os.fsync(h.fileno())`` (or ``os.fsync(fd)``) whose handle's
  reaching definition is an ``open``/``os.open`` of the *same name*
  the rename moves — otherwise a crash after the rename can publish a
  file whose data blocks never left the page cache;
* after the rename (lexically, on the success path) some call must
  sync the containing directory — either ``os.fsync`` directly or a
  helper whose body performs one (this resolves
  ``_fsync_directory``) — otherwise the rename itself is the thing
  the crash forgets.

Shapes the analysis cannot decide (a computed source path, a rename
outside any function) produce *warnings*, not silent passes: the
author either rewrites into the provable shape or consciously
baselines the finding.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.dataflow import (
    FunctionFlow,
    ProjectModel,
    call_name,
    project_model,
)
from repro.lint.engine import LintViolation, SourceModule

RULE = "durable-write"


def _violation(
    path: str, line: int, message: str, severity: str = "error"
) -> LintViolation:
    return LintViolation(
        rule=RULE, path=path, line=line, message=message, severity=severity
    )


def _is_open_of(def_node: ast.AST, source: str) -> bool:
    """Whether a reaching definition opens the file named ``source``."""
    if not isinstance(def_node, ast.Call):
        return False
    name = call_name(def_node)
    if name not in ("open", "os.open", "io.open"):
        return False
    return bool(
        def_node.args
        and isinstance(def_node.args[0], ast.Name)
        and def_node.args[0].id == source
    )


def _fsync_covers_source(
    call: ast.Call, flow: FunctionFlow, source: str
) -> bool:
    """Whether one ``os.fsync(...)`` call provably syncs ``source``."""
    if call_name(call) != "os.fsync" or not call.args:
        return False
    arg = call.args[0]
    stmt = flow.statement_of(call)
    if stmt is None:
        return False
    # ``os.fsync(handle.fileno())`` — trace the handle.
    if (
        isinstance(arg, ast.Call)
        and isinstance(arg.func, ast.Attribute)
        and arg.func.attr == "fileno"
        and isinstance(arg.func.value, ast.Name)
    ):
        handle = arg.func.value.id
        return any(
            _is_open_of(d, source) for d in flow.reaching(stmt, handle)
        )
    # ``os.fsync(fd)`` — trace the descriptor.
    if isinstance(arg, ast.Name):
        return any(
            _is_open_of(d, source) for d in flow.reaching(stmt, arg.id)
        )
    return False


def _syncs_a_directory(call: ast.Call, model: ProjectModel) -> bool:
    """Whether a post-rename call performs (or wraps) a directory sync."""
    name = call_name(call)
    if name is None:
        return False
    if name == "os.fsync":
        return True
    bare = name.rsplit(".", 1)[-1]
    for fn in model.by_name.get(bare, []):
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and call_name(node) == "os.fsync":
                return True
    return False


def durable_write_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Prove fsync-before-rename and dirsync-after-rename everywhere."""
    model = project_model(modules)
    violations: list[LintViolation] = []
    flows: dict[str, FunctionFlow] = {}

    for site in model.calls:
        if call_name(site.call) != "os.replace":
            continue
        line = site.call.lineno
        if site.enclosing is None:
            violations.append(_violation(
                site.path, line,
                "os.replace at module level cannot be checked for "
                "fsync discipline", "warning",
            ))
            continue
        flow = flows.get(site.enclosing.qualname)
        if flow is None:
            flow = FunctionFlow(site.enclosing.node)
            flows[site.enclosing.qualname] = flow
        stmt = flow.statement_of(site.call)
        if stmt is None:
            violations.append(_violation(
                site.path, line,
                "os.replace nested in a non-statement position; fsync "
                "discipline cannot be checked", "warning",
            ))
            continue
        if not site.call.args or not isinstance(
            site.call.args[0], ast.Name
        ):
            violations.append(_violation(
                site.path, line,
                "os.replace source is not a plain name; bind the temp "
                "path to a local so the fsync proof can anchor",
                "warning",
            ))
            continue
        source = site.call.args[0].id
        if not any(
            _fsync_covers_source(call, flow, source)
            for call in flow.must_precede_calls(stmt)
        ):
            violations.append(_violation(
                site.path, line,
                f"os.replace({source}, ...) is not preceded on every "
                f"path by os.fsync of a handle opened on {source!r}: a "
                "crash after the rename can publish unsynced data",
            ))
        if not any(
            _syncs_a_directory(call, model)
            for call in flow.calls_after(stmt)
        ):
            violations.append(_violation(
                site.path, line,
                "no directory fsync follows this os.replace: a crash "
                "can forget the rename itself",
            ))
    return violations
