"""Worker-determinism rule: no nondeterminism in worker-side work.

The sweep engine promises bit-identical results between
``--jobs 1`` and ``--jobs N``; that promise dies the moment anything a
worker computes reads the wall clock or an unseeded RNG. This rule
walks the static import graph from the worker work-unit modules
(:data:`WORKER_ROOTS`) and flags, in every reachable module:

* any import of the stdlib ``random`` module (its global state is
  per-process and unseeded — use a seeded ``numpy`` Generator);
* wall-clock reads whose value could leak into results —
  ``time.time``/``time_ns``, ``datetime.now``/``utcnow``,
  ``date.today`` (monotonic timers like ``time.perf_counter`` are
  allowed: they are used for *reporting* elapsed time, which is
  deliberately outside the bit-identity contract);
* entropy sources: ``os.urandom``, ``uuid.uuid1``/``uuid4``,
  ``secrets.*``;
* legacy ``numpy.random`` global-state calls (``np.random.seed``,
  ``np.random.random``, ...) and **unseeded** ``default_rng()`` /
  ``SeedSequence()`` constructions.
"""

from __future__ import annotations

import ast
from typing import Mapping

from repro.lint.dataflow import dotted
from repro.lint.engine import LintViolation, SourceModule

#: Modules holding the worker work units; everything they can
#: statically reach must stay deterministic.
WORKER_ROOTS = ("repro.experiments.runner",)

#: Dotted-call suffixes (last two components) that read wall clock or
#: entropy. ``time.perf_counter``/``monotonic`` are deliberately absent.
BANNED_CALL_SUFFIXES = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "date.today",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
})

#: numpy.random attributes that are fine to construct (explicitly
#: seeded generators); every other ``*.random.*`` call is legacy
#: global-state API.
_SEEDED_FACTORIES = frozenset({"default_rng", "Generator", "SeedSequence"})


def import_edges(module: SourceModule) -> set[str]:
    """Dotted names of ``repro`` modules this module imports."""
    edges: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    edges.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:  # resolve relative imports against self
                base = module.name.split(".")
                base = base[: len(base) - node.level]
                target = ".".join(base + ([target] if target else []))
            if target.startswith("repro"):
                edges.add(target)
                # `from repro.pkg import sub` may name a submodule.
                for alias in node.names:
                    edges.add(f"{target}.{alias.name}")
    return edges


def reachable_modules(
    modules: Mapping[str, SourceModule],
    roots: tuple[str, ...] = WORKER_ROOTS,
) -> set[str]:
    """Modules statically reachable from the worker entry points."""
    seen: set[str] = set()
    frontier = [root for root in roots if root in modules]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        for edge in import_edges(modules[name]):
            if edge in modules and edge not in seen:
                frontier.append(edge)
    return seen


def _module_violations(module: SourceModule) -> list[LintViolation]:
    violations: list[LintViolation] = []

    def flag(line: int, message: str) -> None:
        violations.append(LintViolation(
            rule="worker-determinism",
            path=module.path,
            line=line,
            message=message,
        ))

    from_time_aliases: set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    flag(node.lineno, (
                        "stdlib `random` imported in worker-reachable "
                        "code; use a seeded numpy Generator"
                    ))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                flag(node.lineno, (
                    "stdlib `random` imported in worker-reachable code; "
                    "use a seeded numpy Generator"
                ))
            elif node.module == "time":
                for alias in node.names:
                    if alias.name in ("time", "time_ns"):
                        from_time_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in from_time_aliases
            ):
                flag(node.lineno, (
                    f"wall-clock call {node.func.id}() in "
                    "worker-reachable code; results must not depend "
                    "on the clock"
                ))
                continue
            target = dotted(node.func)
            if target is None:
                continue
            parts = target.split(".")
            suffix = ".".join(parts[-2:])
            if suffix in BANNED_CALL_SUFFIXES:
                flag(node.lineno, (
                    f"nondeterministic call {target}() in "
                    "worker-reachable code"
                ))
            elif "random" in parts[:-1]:
                if parts[-1] not in _SEEDED_FACTORIES:
                    flag(node.lineno, (
                        f"legacy global-state RNG call {target}(); use a "
                        "seeded Generator from default_rng(seed)"
                    ))
                elif not node.args and not node.keywords:
                    flag(node.lineno, (
                        f"unseeded {target}() draws OS entropy; pass an "
                        "explicit seed in worker-reachable code"
                    ))
            elif (
                parts[-1] in ("default_rng", "SeedSequence")
                and not node.args
                and not node.keywords
            ):
                flag(node.lineno, (
                    f"unseeded {target}() draws OS entropy; pass an "
                    "explicit seed in worker-reachable code"
                ))
    return violations


def worker_determinism_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Check every worker-reachable module for nondeterminism."""
    violations: list[LintViolation] = []
    for name in sorted(reachable_modules(modules)):
        violations.extend(_module_violations(modules[name]))
    return violations
