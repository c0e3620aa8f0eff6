"""Trace-event contract checker (the ``trace-contract`` rule).

PR 4 made traces a load-bearing artifact: the profiler reconciles
``cache.*`` sums against ``point.end`` stats, CI schema-validates every
line, and chaos tests assert on event payloads. Nothing, however,
tied the *call sites* to the contract — renaming an event, dropping a
payload key, or adding a counter nobody aggregates would ship
silently. This rule closes the loop statically:

* every ``emit()``/``span()`` call site in ``src/repro`` is resolved
  to its possible event names — through literal strings, two-armed
  conditionals, and f-strings over parameters substituted via the
  call graph (``AnalysisCache.bump`` -> ``cache.*``,
  ``Injection.fire`` -> ``fault.*``) — and diffed against
  :data:`repro.obs.events.EVENT_NAMES` (carried inside
  ``EVENT_SCHEMA["definitions"]["events"]``);
* payload keys (keyword arguments beyond the envelope, including
  forwarded ``**kwargs``) must be declared for some resolvable name,
  and literal payload values must match the declared type;
* catalogue entries nothing can emit are flagged as dead schema;
* event names that cannot be resolved at all produce a *warning*
  (fails only ``--strict``), never a crash and never silence;
* every observability sink named ``emit`` in :data:`OBS_MODULE` must
  accept the full envelope (``dur``/``task``/``point``/``unit``) so
  correlation ids can never leak into the ``f`` payload;
* counter completeness: every name passed to ``bump()`` must appear
  in ``COUNTER_NAMES`` (the only counters ``stats()`` surfaces and
  ``render_sweep_table``/``repro profile`` aggregate), every declared
  counter must be bumped somewhere, each must have a ``cache.<name>``
  catalogue entry, and ``render_sweep_table`` must still call
  ``aggregate_analysis_stats``.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.callgraph import (
    resolve_keyword_keys,
    resolve_string_values,
)
from repro.lint.dataflow import CallSite, ProjectModel, project_model
from repro.lint.engine import LintViolation, SourceModule

#: Module defining the event schema, catalogue, and emit sinks.
OBS_MODULE = "repro.obs.events"
#: Module defining the analysis-stats counters.
CACHE_MODULE = "repro.analysis.cache"
#: Module whose ``render_sweep_table`` surfaces the aggregated stats.
REPORT_MODULE = "repro.experiments.report"

#: Envelope keywords of ``emit`` sinks: stamped as top-level record
#: fields, never part of the ``f`` payload.
EMIT_ENVELOPE = frozenset({"dur", "task", "point", "unit"})
#: ``span`` accepts only ``task``; its duration is measured, not passed.
SPAN_ENVELOPE = frozenset({"task"})

RULE = "trace-contract"


def _violation(
    path: str, line: int, message: str, severity: str = "error"
) -> LintViolation:
    return LintViolation(
        rule=RULE, path=path, line=line, message=message, severity=severity
    )


def first_positional_or_keyword(call: ast.Call, name: str) -> ast.expr | None:
    """The first positional argument, or the keyword ``name=``."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    if call.args and not isinstance(call.args[0], ast.Starred):
        return call.args[0]
    return None


def _literal_assignment(
    module: SourceModule, name: str
) -> tuple[object, int] | None:
    """``(value, line)`` of a module-level literal assignment."""
    for node in module.tree.body:
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if not (isinstance(target, ast.Name) and target.id == name):
            continue
        value = getattr(node, "value", None)
        if value is None:
            return None
        try:
            return ast.literal_eval(value), node.lineno
        except ValueError:
            return None
    return None


def event_catalogue(
    obs_module: SourceModule,
) -> tuple[dict[str, dict[str, str]] | None, int]:
    """The ``EVENT_NAMES`` payload catalogue parsed from source."""
    found = _literal_assignment(obs_module, "EVENT_NAMES")
    if found is None:
        return None, 1
    value, line = found
    if not isinstance(value, dict):
        return None, line
    catalogue: dict[str, dict[str, str]] = {}
    for name, payload in value.items():
        if not isinstance(name, str) or not isinstance(payload, dict):
            return None, line
        catalogue[name] = {str(k): str(v) for k, v in payload.items()}
    return catalogue, line


def _is_emit_call(site: CallSite) -> str | None:
    """``"emit"``/``"span"`` when a call site targets a trace sink."""
    func = site.call.func
    name: str | None = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return name if name in ("emit", "span") else None


def _constant_matches(value: object, declared: str) -> bool:
    """Whether a literal payload value satisfies a declared type."""
    optional = declared.endswith("?")
    base = declared[:-1] if optional else declared
    if value is None:
        return optional or base == "any"
    if base == "any":
        return True
    if isinstance(value, bool):
        return base == "bool"
    if isinstance(value, int):
        return base in ("int", "number")
    if isinstance(value, float):
        return base == "number"
    if isinstance(value, str):
        return base == "str"
    return True  # containers etc.: not checked statically


def trace_contract_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Cross-check every static emit/span site against the catalogue."""
    if OBS_MODULE not in modules:
        return [_violation(
            "<module set>", 0,
            f"cannot check: module {OBS_MODULE} not in the lint set",
        )]
    obs_module = modules[OBS_MODULE]
    catalogue, catalogue_line = event_catalogue(obs_module)
    if catalogue is None:
        return [_violation(
            obs_module.path, catalogue_line,
            "EVENT_NAMES catalogue missing or not a literal "
            "{name: {key: type}} dict; the trace contract cannot anchor",
        )]

    model = project_model(modules)
    violations: list[LintViolation] = []
    emitted_names: set[str] = set()

    for site in model.calls:
        kind = _is_emit_call(site)
        if kind is None or site.module == OBS_MODULE:
            continue
        name_arg = first_positional_or_keyword(site.call, "name")
        if name_arg is None:
            violations.append(_violation(
                site.path, site.call.lineno,
                f"{kind}() call passes no event name", "warning",
            ))
            continue
        resolved = resolve_string_values(name_arg, site.enclosing, model)
        if not resolved.complete or not resolved.values:
            violations.append(_violation(
                site.path, site.call.lineno,
                f"dynamic {kind}() event name cannot be resolved to "
                "string literals; resolved candidates: "
                f"{sorted(resolved.values) or 'none'}", "warning",
            ))
        emitted_names.update(resolved.values)
        allowed: dict[str, str] = {}
        for name in sorted(resolved.values):
            if name not in catalogue:
                violations.append(_violation(
                    site.path, site.call.lineno,
                    f"event {name!r} is emitted but not in EVENT_NAMES "
                    f"({OBS_MODULE}); catalogue it or rename the emit",
                ))
            else:
                for key, declared in catalogue[name].items():
                    allowed.setdefault(key, declared)
        if not resolved.values or not allowed and not any(
            name in catalogue for name in resolved.values
        ):
            continue  # name-level findings already cover this site
        envelope = EMIT_ENVELOPE if kind == "emit" else SPAN_ENVELOPE
        keys = resolve_keyword_keys(site.call, site.enclosing, model)
        if not keys.complete:
            violations.append(_violation(
                site.path, site.call.lineno,
                f"cannot resolve forwarded ** payload of this {kind}() "
                "call; payload keys unchecked", "warning",
            ))
        for key in sorted(keys.values - envelope):
            if key not in allowed:
                violations.append(_violation(
                    site.path, site.call.lineno,
                    f"payload key {key!r} is not declared for "
                    f"{sorted(n for n in resolved.values if n in catalogue)}"
                    " in EVENT_NAMES; declare it or drop it",
                ))
        for keyword in site.call.keywords:
            if (
                keyword.arg is None
                or keyword.arg in envelope
                or keyword.arg not in allowed
            ):
                continue
            if isinstance(keyword.value, ast.Constant):
                if not _constant_matches(
                    keyword.value.value, allowed[keyword.arg]
                ):
                    violations.append(_violation(
                        site.path, site.call.lineno,
                        f"payload key {keyword.arg!r} has literal "
                        f"{keyword.value.value!r} but EVENT_NAMES "
                        f"declares type {allowed[keyword.arg]!r}",
                    ))

    for name in sorted(set(catalogue) - emitted_names):
        violations.append(_violation(
            obs_module.path, catalogue_line,
            f"dead schema entry: EVENT_NAMES declares {name!r} but no "
            "static emit/span site can produce it",
        ))

    violations.extend(_check_sink_signatures(obs_module))
    violations.extend(_check_counters(modules, model, catalogue))
    return violations


def _check_sink_signatures(obs_module: SourceModule) -> list[LintViolation]:
    """Every ``emit`` sink must accept the full envelope."""
    violations: list[LintViolation] = []
    for node in ast.walk(obs_module.tree):
        if not isinstance(node, ast.FunctionDef) or node.name != "emit":
            continue
        params = {
            a.arg
            for a in node.args.posonlyargs + node.args.args
            + node.args.kwonlyargs
        }
        missing = sorted(EMIT_ENVELOPE - params)
        if missing:
            violations.append(_violation(
                obs_module.path, node.lineno,
                f"emit sink does not accept envelope parameter(s) "
                f"{missing}: callers passing them would silently bury "
                "correlation ids inside the f payload",
            ))
    return violations


def _check_counters(
    modules: Mapping[str, SourceModule],
    model: ProjectModel,
    catalogue: dict[str, dict[str, str]],
) -> list[LintViolation]:
    """analysis_stats counter completeness (bump <-> aggregate)."""
    violations: list[LintViolation] = []
    if CACHE_MODULE not in modules:
        return [_violation(
            "<module set>", 0,
            f"cannot check counters: module {CACHE_MODULE} missing",
        )]
    cache_module = modules[CACHE_MODULE]
    found = _literal_assignment(cache_module, "COUNTER_NAMES")
    if found is None or not isinstance(found[0], (tuple, list)):
        return [_violation(
            cache_module.path, 1,
            "COUNTER_NAMES missing or not a literal tuple; counter "
            "completeness cannot anchor",
        )]
    counters = [str(name) for name in found[0]]
    counters_line = found[1]

    bumped: set[str] = set()
    for site in model.calls:
        func = site.call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name != "bump":
            continue
        arg = first_positional_or_keyword(site.call, "name")
        if arg is None:
            continue
        resolved = resolve_string_values(arg, site.enclosing, model)
        for value in sorted(resolved.values):
            bumped.add(value)
            if value not in counters:
                violations.append(_violation(
                    site.path, site.call.lineno,
                    f"counter {value!r} is bumped but not in "
                    "COUNTER_NAMES: stats() never surfaces it and no "
                    "report aggregates it",
                ))
    for name in counters:
        if name not in bumped:
            violations.append(_violation(
                cache_module.path, counters_line,
                f"dead counter: COUNTER_NAMES declares {name!r} but "
                "nothing bumps it",
            ))
        if f"cache.{name}" not in catalogue:
            violations.append(_violation(
                cache_module.path, counters_line,
                f"counter {name!r} has no 'cache.{name}' entry in "
                "EVENT_NAMES; its bump events would violate the trace "
                "contract",
            ))

    report = modules.get(REPORT_MODULE)
    if report is None:
        violations.append(_violation(
            "<module set>", 0,
            f"cannot check aggregation: module {REPORT_MODULE} missing",
        ))
        return violations
    aggregates = False
    for node in ast.walk(report.tree):
        if isinstance(node, ast.FunctionDef) and node.name == "render_sweep_table":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    target = func.id if isinstance(func, ast.Name) else (
                        func.attr if isinstance(func, ast.Attribute) else ""
                    )
                    if target == "aggregate_analysis_stats":
                        aggregates = True
    if not aggregates:
        violations.append(_violation(
            report.path, 1,
            "render_sweep_table no longer calls aggregate_analysis_stats; "
            "analysis_stats counters would go unreported",
        ))
    return violations
