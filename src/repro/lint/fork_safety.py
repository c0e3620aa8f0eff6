"""Fork-safety and concurrency-discipline checks (``fork-safety``).

Code that ships work to a ``ProcessPoolExecutor`` pickles every
argument of every ``pool.submit(...)`` call, sends it over a pipe,
and unpickles it in a worker that shares nothing with the parent.
Three classes of state silently survive that trip in a broken form:

* ``sqlite3`` connections — unpicklable in theory, but easily smuggled
  inside a wrapper object whose ``__reduce__`` hides them; the store
  deliberately opens its connection *inside* the worker instead;
* open file handles — pickle refuses raw handles but duplicated
  descriptors via custom state land on the wrong side of the fork;
* unseeded RNGs (``default_rng()`` with no arguments) — each worker
  would re-derive entropy differently, destroying the bit-identical
  sequential/parallel equivalence the experiment tests assert.

The rule resolves every ``submit`` callee to its project definition,
collects the project classes its annotations mention, transitively
closes over their field annotations, and flags any class in that
pickled surface whose methods assign a connection, handle, or unseeded
RNG to ``self`` (classes that curate their state via ``__getstate__``
or ``__reduce__`` are exempt). The sweep workers cross the other spawn
boundary with the same pickling semantics: a
``multiprocessing.Process(target=...)`` worker is forked/spawned with
its target and args pickled exactly like a pool submission, so
``Process`` targets join the audit — they must be module-level
functions in the spawning module and their annotation-derived pickled
surface is checked with the same resource rules.

The second half enforces the scope-stack discipline introduced with
``cache_scope``/``injecting``/``recording``: the module-level LIFO
stacks (:data:`STACK_NAMES`) may only be mutated inside functions
decorated with ``@contextmanager`` — the only shape that guarantees a
matched pop on every exit path, which fault-injection tests rely on.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from repro.lint.dataflow import (
    CallSite,
    ClassInfo,
    ProjectModel,
    call_name,
    project_model,
)
from repro.lint.engine import LintViolation, SourceModule

RULE = "fork-safety"

#: Module-level LIFO scope stacks under context-manager discipline.
STACK_NAMES = frozenset({"_SCOPES", "_RECORDERS"})
#: List methods that mutate a stack.
MUTATORS = frozenset(
    {"append", "pop", "clear", "extend", "insert", "remove"}
)


def _violation(
    path: str, line: int, message: str, severity: str = "error"
) -> LintViolation:
    return LintViolation(
        rule=RULE, path=path, line=line, message=message, severity=severity
    )


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    """Every plain name an annotation expression mentions.

    Handles subscripts (``list[X]``), unions (``X | None``), and
    string annotations (``"X | None"``) by parsing and walking.
    """
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            parsed = ast.parse(annotation.value, mode="eval")
        except SyntaxError:
            return
        yield from _annotation_names(parsed.body)
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _class_annotations(cls: ClassInfo) -> Iterator[ast.expr]:
    """Field and ``__init__`` parameter annotations of a class."""
    for stmt in cls.node.body:
        if isinstance(stmt, ast.AnnAssign):
            yield stmt.annotation
        elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            args = stmt.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if arg.annotation is not None:
                    yield arg.annotation


def _pickled_surface(
    roots: Iterator[str], model: ProjectModel
) -> dict[str, ClassInfo]:
    """Project classes transitively reachable from annotation names."""
    surface: dict[str, ClassInfo] = {}
    queue = list(dict.fromkeys(roots))
    while queue:
        name = queue.pop()
        if name in surface:
            continue
        cls = model.class_named(name)
        if cls is None:
            continue
        surface[name] = cls
        for annotation in _class_annotations(cls):
            queue.extend(_annotation_names(annotation))
    return surface


def _curates_state(cls: ClassInfo) -> bool:
    return any(
        isinstance(stmt, ast.FunctionDef)
        and stmt.name in ("__getstate__", "__reduce__")
        for stmt in cls.node.body
    )


def _unsafe_resource(call: ast.Call) -> str | None:
    """Human description when a call creates fork-unsafe state."""
    name = call_name(call)
    if name is None:
        return None
    if name == "open" or name.endswith(".open"):
        return "an open file handle"
    if name == "connect" or name.endswith(".connect"):
        return "a database connection"
    if name == "default_rng" or name.endswith(".default_rng"):
        if not call.args and not call.keywords:
            return "an unseeded random generator"
    return None


def _unsafe_self_assignments(
    cls: ClassInfo,
) -> Iterator[tuple[str, str, int]]:
    """``(attribute, resource, line)`` for fork-unsafe ``self.x = ...``."""
    for stmt in cls.node.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                for call in ast.walk(node.value):
                    if isinstance(call, ast.Call):
                        resource = _unsafe_resource(call)
                        if resource is not None:
                            yield target.attr, resource, node.lineno


def _uses_process_pool(module: SourceModule) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            if any(a.name == "ProcessPoolExecutor" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "concurrent.futures" for a in node.names):
                return True
    return False


def _uses_multiprocessing(module: SourceModule) -> bool:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] == "multiprocessing":
                return True
        elif isinstance(node, ast.Import):
            if any(
                a.name.split(".")[0] == "multiprocessing"
                for a in node.names
            ):
                return True
    return False


def _spawn_callee_violations(
    site: CallSite,
    callee: ast.expr,
    model: ProjectModel,
    label: str,
    boundary: str,
) -> list[LintViolation]:
    """Audit the pickled surface of a function shipped to a child.

    Shared between ``pool.submit(fn, ...)`` and
    ``multiprocessing.Process(target=fn, ...)``: both pickle the
    callee by qualified name and its arguments by value, so the same
    module-level-definition and annotation-surface checks apply.
    """
    violations: list[LintViolation] = []
    if not isinstance(callee, ast.Name):
        violations.append(_violation(
            site.path, site.call.lineno,
            f"{label} callee is not a module-level function name; "
            "its pickled surface cannot be checked", "warning",
        ))
        return violations
    definitions = [
        fn for fn in model.by_name.get(callee.id, [])
        if fn.module == site.module and not fn.is_method
    ]
    if not definitions:
        violations.append(_violation(
            site.path, site.call.lineno,
            f"{label} callee {callee.id!r} has no module-level "
            "definition in this module; workers can only import "
            "top-level functions", "warning",
        ))
        return violations
    for fn in definitions:
        args = fn.node.args
        annotations = [
            a.annotation
            for a in args.posonlyargs + args.args + args.kwonlyargs
            if a.annotation is not None
        ]
        roots: list[str] = []
        for annotation in annotations:
            roots.extend(_annotation_names(annotation))
        for name, cls in sorted(
            _pickled_surface(iter(roots), model).items()
        ):
            if _curates_state(cls):
                continue
            for attr, resource, line in _unsafe_self_assignments(cls):
                violations.append(_violation(
                    cls.path, line,
                    f"{name}.{attr} holds {resource} but {name} "
                    f"crosses the {boundary} boundary via "
                    f"{fn.name}() ({site.path}:{site.call.lineno}); "
                    "open it worker-side or add __getstate__",
                ))
    return violations


def fork_safety_rule(
    modules: Mapping[str, SourceModule],
) -> list[LintViolation]:
    """Check pickle boundaries and scope-stack discipline."""
    model = project_model(modules)
    violations: list[LintViolation] = []

    pool_modules = {
        name for name, module in modules.items()
        if _uses_process_pool(module)
    }
    mp_modules = {
        name for name, module in modules.items()
        if _uses_multiprocessing(module)
    }
    for site in model.calls:
        func = site.call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "submit"
            and site.module in pool_modules
            and site.call.args
        ):
            violations.extend(_spawn_callee_violations(
                site, site.call.args[0], model,
                "submit()", "process-pool",
            ))
            continue
        name = call_name(site.call)
        if (
            name is not None
            and (name == "Process" or name.endswith(".Process"))
            and site.module in mp_modules
        ):
            target = next(
                (kw.value for kw in site.call.keywords
                 if kw.arg == "target"),
                None,
            )
            if target is not None:
                violations.extend(_spawn_callee_violations(
                    site, target, model,
                    "Process(target=...)", "spawned-process",
                ))

    violations.extend(_check_scope_stacks(modules, model))
    return violations


def _module_stacks(module: SourceModule) -> set[str]:
    """Module-level names in :data:`STACK_NAMES` bound to a list."""
    stacks: set[str] = set()
    for node in module.tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id in STACK_NAMES:
                stacks.add(target.id)
    return stacks


def _check_scope_stacks(
    modules: Mapping[str, SourceModule], model: ProjectModel
) -> list[LintViolation]:
    violations: list[LintViolation] = []
    stack_owners = {
        name: _module_stacks(module) for name, module in modules.items()
    }
    for site in model.calls:
        func = site.call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in stack_owners.get(site.module, set())
        ):
            continue
        stack = func.value.id
        if site.enclosing is None:
            violations.append(_violation(
                site.path, site.call.lineno,
                f"module-level scope stack {stack} mutated at import "
                "time; stacks may only change inside context managers",
            ))
        elif not site.enclosing.decorated_with("contextmanager"):
            violations.append(_violation(
                site.path, site.call.lineno,
                f"scope stack {stack} mutated in "
                f"{site.enclosing.name}(), which is not decorated with "
                "@contextmanager; an exception could leave the stack "
                "unbalanced",
            ))
    return violations
