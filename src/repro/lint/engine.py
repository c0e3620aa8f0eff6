"""Rule registry and module discovery.

The engine parses every module under ``src/repro`` once into a
``{dotted-name: SourceModule}`` mapping and hands the whole mapping to
each rule. Rules take the mapping rather than the filesystem so tests
can lint small synthetic modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping


@dataclass(frozen=True)
class LintViolation:
    """One broken invariant at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class SourceModule:
    """One parsed source file, addressed by its dotted module name."""

    name: str
    path: str
    tree: ast.Module

    @staticmethod
    def parse(name: str, path: str, source: str) -> "SourceModule":
        return SourceModule(
            name=name, path=path, tree=ast.parse(source, filename=path)
        )


Rule = Callable[[Mapping[str, SourceModule]], list[LintViolation]]


@dataclass
class LoadedProject:
    """Module mapping plus the findings produced while loading it."""

    modules: dict[str, SourceModule] = field(default_factory=dict)
    findings: list[LintViolation] = field(default_factory=list)


def load_project(package_root: str | Path | None = None) -> LoadedProject:
    """Parse the ``repro`` package, tolerating broken files.

    A file that fails to parse becomes a ``parse-error`` finding (the
    rest of the tree still lints) instead of aborting the whole run.

    Args:
        package_root: Directory of the ``repro`` package; defaults to
            the package this linter is part of, so ``repro lint``
            always checks the code it runs from.
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parents[1]
    package_root = Path(package_root)
    project = LoadedProject()
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root.parent)
        parts = list(relative.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        try:
            module = SourceModule.parse(name, str(path), path.read_text())
        except SyntaxError as exc:
            project.findings.append(LintViolation(
                rule="parse-error",
                path=str(path),
                line=exc.lineno or 0,
                message=f"cannot parse module: {exc.msg}",
            ))
            continue
        project.modules[name] = module
    return project


def _registry() -> dict[str, Rule]:
    from repro.lint.determinism import worker_determinism_rule
    from repro.lint.rules import float_time_equality_rule

    return {
        "worker-determinism": worker_determinism_rule,
        "float-time-equality": float_time_equality_rule,
    }


#: Name -> rule mapping; ``run_lint(rules=...)`` selects a subset.
RULES: dict[str, Rule] = _registry()


def run_lint(
    modules: Mapping[str, SourceModule] | None = None,
    rules: Iterable[str] | None = None,
) -> list[LintViolation]:
    """Run the selected rules (all by default) over the module set.

    Without ``modules`` it lints the ``repro`` package itself, and the
    result includes its ``parse-error`` findings. Returns the
    violations sorted by path and line; an empty list means every
    checked invariant holds.
    """
    violations: list[LintViolation] = []
    if modules is None:
        project = load_project()
        modules, violations = project.modules, project.findings
    selected = list(rules) if rules is not None else sorted(RULES)
    unknown = [name for name in selected if name not in RULES]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {unknown}; known: {sorted(RULES)}"
        )
    for name in selected:
        violations.extend(RULES[name](modules))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))
