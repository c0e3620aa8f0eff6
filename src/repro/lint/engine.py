"""Rule registry, module discovery, baselines, and SARIF output.

The engine parses every module under ``src/repro`` once into a
``{dotted-name: SourceModule}`` mapping and hands the whole mapping to
each rule. Per-module rules scan each tree independently; project
rules (cache-key completeness, worker determinism, the flow-aware
families from :mod:`repro.lint.dataflow`) correlate several modules —
which is exactly what off-the-shelf linters cannot do. Rules take the
mapping rather than the filesystem so tests can lint tampered sources
(e.g. a digest with a field deliberately removed).

Findings are :class:`LintViolation` objects carrying a severity
(``error`` fails the lint; ``warning`` only under ``--strict``) and a
stable :attr:`~LintViolation.fingerprint` — a content hash of
``(rule, path, message)`` that survives unrelated line shifts, so a
baseline file (:func:`load_baseline` / :func:`suppress_baseline`) can
grandfather known findings without pinning line numbers.
:func:`to_sarif` renders findings as SARIF 2.1.0 for CI annotation.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

#: Finding severities: errors always fail the lint; warnings (used for
#: honestly-unprovable facts like fully dynamic event names) fail it
#: only under ``--strict``.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class LintViolation:
    """One broken invariant at one source location."""

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        tag = "" if self.severity == "error" else f" {self.severity}:"
        return f"{self.path}:{self.line}: [{self.rule}]{tag} {self.message}"

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselines: hash of rule, path, message.

        Deliberately excludes the line number so reformatting or
        adding code above a grandfathered finding does not churn the
        baseline; two identical findings in one file share a
        fingerprint and are suppressed together.
        """
        basis = f"{self.rule}|{Path(self.path).as_posix()}|{self.message}"
        return hashlib.sha256(basis.encode()).hexdigest()[:16]


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
    skipped: list[str] = field(default_factory=list)


def load_project(
    package_root: str | Path | None = None,
    exclude: tuple[str, ...] = (),
) -> LoadedProject:
    """Parse the ``repro`` package, tolerating broken files.

    A file that fails to parse becomes a ``parse-error`` finding (the
    rest of the tree still lints) instead of aborting the whole run.
    ``exclude`` entries are substring patterns matched against each
    file's POSIX-style path; matching files are skipped and recorded.
    """
    if package_root is None:
        package_root = Path(__file__).resolve().parents[1]
    package_root = Path(package_root)
    project = LoadedProject()
    for path in sorted(package_root.rglob("*.py")):
        posix = path.as_posix()
        if any(pattern in posix for pattern in exclude):
            project.skipped.append(str(path))
            continue
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


def load_repo_modules(
    package_root: Path | None = None,
) -> dict[str, SourceModule]:
    """Parse every module of the installed ``repro`` package.

    Strict variant of :func:`load_project`: raises on the first
    syntax error. Kept for callers (and tests) that lint a tree they
    know parses.

    Args:
        package_root: Directory of the ``repro`` package; defaults to
            the package this linter is part of, so ``repro lint``
            always checks the code it runs from.
    """
    project = load_project(package_root)
    if project.findings:
        first = project.findings[0]
        raise SyntaxError(f"{first.path}:{first.line}: {first.message}")
    return project.modules


def _registry() -> dict[str, Rule]:
    from repro.lint.cache_key import (
        cache_key_completeness_rule,
        solver_options_rule,
    )
    from repro.lint.determinism import worker_determinism_rule
    from repro.lint.rules import (
        float_time_equality_rule,
        mutable_default_rule,
    )
    from repro.lint.trace_contract import trace_contract_rule

    return {
        "cache-key-completeness": cache_key_completeness_rule,
        "cache-key-solver-options": solver_options_rule,
        "worker-determinism": worker_determinism_rule,
        "float-time-equality": float_time_equality_rule,
        "mutable-default-argument": mutable_default_rule,
        "trace-contract": trace_contract_rule,
    }


#: Name -> rule mapping; ``run_lint(rules=...)`` selects a subset.
RULES: dict[str, Rule] = _registry()


def run_lint(
    modules: Mapping[str, SourceModule] | None = None,
    rules: Iterable[str] | None = None,
) -> list[LintViolation]:
    """Run the selected rules (all by default) over the module set.

    Returns the violations sorted by path and line; an empty list means
    every checked invariant holds.
    """
    if modules is None:
        modules = load_repo_modules()
    selected = list(rules) if rules is not None else sorted(RULES)
    unknown = [name for name in selected if name not in RULES]
    if unknown:
        raise ValueError(
            f"unknown lint rule(s) {unknown}; known: {sorted(RULES)}"
        )
    violations: list[LintViolation] = []
    for name in selected:
        violations.extend(RULES[name](modules))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
def load_baseline(path: str | Path) -> set[str]:
    """Fingerprints grandfathered by a baseline file.

    Accepts a JSON list of fingerprint strings or of objects with a
    ``fingerprint`` key (the format :func:`write_baseline` produces).
    Raises ``ValueError`` for unreadable or malformed files — the
    caller maps that to a usage error, never to a clean lint.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read baseline {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ValueError(f"baseline {path} must be a JSON list")
    fingerprints: set[str] = set()
    for entry in data:
        if isinstance(entry, str):
            fingerprints.add(entry)
        elif isinstance(entry, dict) and isinstance(
            entry.get("fingerprint"), str
        ):
            fingerprints.add(entry["fingerprint"])
        else:
            raise ValueError(
                f"baseline {path}: entries must be fingerprint strings or "
                "objects with a 'fingerprint' key"
            )
    return fingerprints


def suppress_baseline(
    violations: Iterable[LintViolation], baseline: set[str]
) -> list[LintViolation]:
    """Violations whose fingerprint is *not* grandfathered."""
    return [v for v in violations if v.fingerprint not in baseline]


def write_baseline(
    violations: Iterable[LintViolation], path: str | Path
) -> None:
    """Write the current findings as a reviewable baseline file."""
    entries = [
        {
            "fingerprint": v.fingerprint,
            "rule": v.rule,
            "path": v.path,
            "message": v.message,
        }
        for v in sorted(
            violations, key=lambda v: (v.rule, v.path, v.message)
        )
    ]
    deduped: list[dict[str, str]] = []
    seen: set[str] = set()
    for entry in entries:
        if entry["fingerprint"] in seen:
            continue
        seen.add(entry["fingerprint"])
        deduped.append(entry)
    Path(path).write_text(json.dumps(deduped, indent=2) + "\n")


# ----------------------------------------------------------------------
# SARIF output (CI annotation)
# ----------------------------------------------------------------------
def to_sarif(violations: Iterable[LintViolation]) -> dict:
    """Findings as a SARIF 2.1.0 log (one run, one driver)."""
    results = []
    rule_ids: list[str] = []
    for violation in violations:
        if violation.rule not in rule_ids:
            rule_ids.append(violation.rule)
        results.append({
            "ruleId": violation.rule,
            "level": violation.severity,
            "message": {"text": violation.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": Path(violation.path).as_posix(),
                    },
                    "region": {"startLine": max(1, violation.line)},
                },
            }],
            "fingerprints": {"reproLint/v1": violation.fingerprint},
        })
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri": "https://example.invalid/repro",
                    "rules": [{"id": rule_id} for rule_id in sorted(rule_ids)],
                },
            },
            "results": results,
        }],
    }
