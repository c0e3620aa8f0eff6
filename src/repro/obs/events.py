"""Structured run-observability events: schema, recorder, JSONL sink.

A *trace* is a JSONL file of flat event records describing where a run
spent its time and which code paths it exercised — task-set
generation, response-time fixpoint iterations, MILP/LP solves,
analysis-cache traffic, greedy LS rounds, solver retries, and worker
lifecycle. Three pieces cooperate:

* :class:`EventRecorder` — an in-memory buffer with monotonic
  timestamps (``time.perf_counter``; wall-clock reads are banned in
  worker-reachable code, see ``repro lint``). Instrumented code emits
  through the module-level :func:`emit`/:func:`span` helpers, which are
  no-ops unless a recorder is installed with :func:`recording` — the
  hot paths pay one list lookup when tracing is off.
* :class:`TraceWriter` — the **single writer** of a trace file. Only
  the parent experiment process ever holds one (the same discipline as
  the store's unit rows): workers buffer events in their own recorder and
  ship them back inside their unit results; the parent stamps the
  run/point/unit correlation ids and appends them in task-set order,
  so a ``--jobs N`` trace is identical in content and order to the
  sequential one, timestamps aside.
* :data:`EVENT_SCHEMA` / :func:`validate_event` — the record contract.
  Every line a :class:`TraceWriter` emits validates; readers
  (:mod:`repro.obs.profile`, the CI perf-smoke job) re-validate.

Event names are dot-namespaced. Names matching
:data:`RUNTIME_PREFIXES` describe *runtime* behaviour (which process
generated a sample, how often a solver or a durable write was
retried) whose event counts legitimately vary with worker count
and machine load; every other name is a *work* event whose aggregate
counts are deterministic — identical between ``--jobs 1`` and
``--jobs N`` runs of the same configuration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable, Iterator, Mapping

from repro.errors import ObservabilityError

#: Version stamped into every event record (the ``v`` field).
EVENT_VERSION = 1

#: Event-name prefixes whose counts are runtime-dependent (worker
#: placement, memoisation, retries, wall-clock pressure) and therefore
#: excluded from the determinism contract and comparison.
RUNTIME_PREFIXES = (
    "worker.",
    "gen.",
    "checkpoint.",
    "highs.",
    "fault.",
    "service.",
)

#: Per-event-name payload contract: every event name the project may
#: emit, mapped to the keys its ``f`` payload may carry and their
#: types. Type strings are ``str``/``int``/``number``/``bool``/
#: ``object``; a ``?`` suffix marks a key that may also be null.
#: :func:`validate_event` checks every record against this table, so
#: an uncatalogued name, an undeclared payload key or a wrongly typed
#: value fails the writer, the readers and the test suite, whose
#: session hook (``tests/conftest.py``) also fails on an entry no test
#: emits.
EVENT_NAMES: dict[str, dict[str, str]] = {
    # run / point lifecycle (parent process)
    "run.start": {"points": "int", "sets": "int", "jobs": "int"},
    "run.end": {},
    "point.end": {"x": "number", "failures": "int", "stats": "object"},
    "gen.tasksets": {"sets": "int"},
    # per-unit protocol evaluation
    "protocol.verdict": {"protocol": "str", "schedulable": "bool"},
    "protocol.failure": {"protocol": "str", "error": "str"},
    # analysis: fixpoint iterations and solves
    "fixpoint.iteration": {"mode": "str", "iteration": "int"},
    "solve": {"mode": "str", "method": "str", "status": "str",
              "degradation": "int", "rows": "int?", "vars": "int?"},
    "milp.incremental.update": {"mode": "str"},
    "milp.incremental.rebuild": {"mode": "str"},
    "ls.round": {"round": "int", "marks": "int"},
    # analysis-cache traffic (names mirror AnalysisCache.COUNTER_NAMES)
    "cache.hits": {"amount": "int"},
    "cache.misses": {"amount": "int"},
    "cache.unit_store.corrupt": {"amount": "int"},
    "cache.milp_solves": {"amount": "int"},
    "cache.milp_target_stops": {"amount": "int"},
    "cache.milp_cutoff_proofs": {"amount": "int"},
    "cache.lp_solves": {"amount": "int"},
    "cache.milp_warm_starts": {"amount": "int"},
    "cache.closed_form_screens": {"amount": "int"},
    "cache.screened_out": {"amount": "int"},
    "cache.unit_store.hits": {"amount": "int"},
    # worker lifecycle / crash recovery
    "worker.unit": {"pid": "int"},
    "worker.requeued": {"attempt": "int", "error": "str"},
    "worker.quarantined": {"crashes": "int", "error": "str"},
    "worker.crash": {"attempt": "int", "crashes": "int"},
    # sweep service (coordinator-side lifecycle; see repro.service)
    "service.start": {"port": "int", "workers": "int"},
    "service.submit": {"points": "int", "units": "int"},
    "service.unit.dispatched": {"worker": "int"},
    "service.worker.joined": {"worker": "int"},
    "service.worker.left": {"worker": "int", "mid_unit": "int"},
    "service.sweep.done": {"served": "int", "dispatched": "int"},
    # durable sweep-export writes
    "checkpoint.retry": {"attempt": "int", "error": "str", "path": "str"},
    # HiGHS attempts (a degraded answer shows as a ``solve`` event's
    # ``degradation``)
    "highs.retry": {"model": "str", "options": "object"},
    "highs.solve": {"model": "str", "scipy_status": "int", "rows": "int",
                    "vars": "int"},
    # fault injection (one entry per site in repro.faults.plan.SITES;
    # mode/spec/plan come from Injection.fire, the rest are the
    # site-specific extras its callers forward)
    "fault.solver.fault": {"mode": "str", "spec": "int", "plan": "str",
                           "backend": "str"},
    "fault.worker.death": {"mode": "str", "spec": "int?", "plan": "str",
                           "synthesized": "bool?"},
    "fault.trace.corrupt": {"mode": "str", "spec": "int?", "plan": "str?",
                            "name": "str?"},
    "fault.fs.error": {"mode": "str", "spec": "int", "plan": "str",
                       "op": "str"},
    "fault.service.disconnect": {"mode": "str", "spec": "int?", "plan": "str",
                                 "synthesized": "bool?"},
}

#: JSON Schema (draft-07 subset) of one trace event record. The
#: per-name payload catalogue rides along under ``definitions`` so a
#: single object is the whole trace contract.
EVENT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro trace event",
    "type": "object",
    "properties": {
        "v": {"const": EVENT_VERSION},
        "name": {"type": "string", "minLength": 1},
        "t": {"type": "number"},
        "dur": {"type": "number", "minimum": 0},
        "run": {"type": "string"},
        "point": {"type": "integer", "minimum": 0},
        "unit": {"type": "integer", "minimum": 0},
        "task": {"type": "string"},
        "f": {"type": "object"},
    },
    "required": ["v", "name", "t"],
    "additionalProperties": False,
    "definitions": {"events": EVENT_NAMES},
}

_OPTIONAL_TYPES: dict[str, type | tuple[type, ...]] = {
    "dur": (int, float),
    "run": str,
    "point": int,
    "unit": int,
    "task": str,
    "f": dict,
}


_PAYLOAD_TYPES: dict[str, type | tuple[type, ...]] = {
    "str": str,
    "int": int,
    "number": (int, float),
    "bool": bool,
    "object": dict,
}


def _payload_problems(name: str, payload: Mapping[str, object]) -> list[str]:
    """Problems of one ``f`` payload against ``EVENT_NAMES[name]``.

    A declared key may be absent; a ``?`` key may also be null.
    """
    declared = EVENT_NAMES.get(name)
    if declared is None:
        return [f"event {name!r} is not in EVENT_NAMES"]
    problems: list[str] = []
    for key, value in payload.items():
        kind = declared.get(key)
        if kind is None:
            problems.append(f"payload key {key!r} is not declared for {name!r}")
            continue
        if value is None and kind.endswith("?"):
            continue
        base = kind.rstrip("?")
        # bool is an int subclass: only a "bool" key may hold one.
        typed = isinstance(value, _PAYLOAD_TYPES[base]) and (
            isinstance(value, bool) == (base == "bool")
        )
        if not typed:
            problems.append(
                f"payload key {key!r} of {name!r} must be {kind}, "
                f"got {value!r}"
            )
    return problems


def is_runtime_event(name: str) -> bool:
    """Whether an event name is outside the determinism contract."""
    return name.startswith(RUNTIME_PREFIXES)


def validate_event(event: object) -> list[str]:
    """Problems of one event record against :data:`EVENT_SCHEMA`.

    Hand-rolled (the schema is small and ``jsonschema`` is not a
    dependency); returns an empty list for a valid record. Beyond the
    envelope it checks the record against :data:`EVENT_NAMES`: the
    name is catalogued, and each ``f`` key is declared for it with a
    value of the declared type.
    """
    if not isinstance(event, dict):
        return [f"event must be an object, got {type(event).__name__}"]
    problems: list[str] = []
    if event.get("v") != EVENT_VERSION:
        problems.append(f"v must be {EVENT_VERSION}, got {event.get('v')!r}")
    name = event.get("name")
    if not isinstance(name, str) or not name:
        problems.append(f"name must be a non-empty string, got {name!r}")
    t = event.get("t")
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        problems.append(f"t must be a number, got {t!r}")
    for key, expected in _OPTIONAL_TYPES.items():
        if key not in event:
            continue
        value = event[key]
        if isinstance(value, bool) or not isinstance(value, expected):
            problems.append(f"{key} has invalid type {type(value).__name__}")
        elif key == "dur" and value < 0:
            problems.append(f"dur must be non-negative, got {value!r}")
        elif key in ("point", "unit") and value < 0:
            problems.append(f"{key} must be non-negative, got {value!r}")
    extras = set(event) - set(EVENT_SCHEMA["properties"])
    if extras:
        problems.append(f"unknown fields {sorted(extras)}")
    payload = event.get("f", {})
    if isinstance(name, str) and name and isinstance(payload, dict):
        problems.extend(_payload_problems(name, payload))
    return problems


def require_valid_event(event: object, where: str = "") -> dict:
    """Return ``event`` if valid, else raise :class:`ObservabilityError`."""
    problems = validate_event(event)
    if problems:
        prefix = f"{where}: " if where else ""
        raise ObservabilityError(
            f"{prefix}invalid trace event: " + "; ".join(problems)
        )
    assert isinstance(event, dict)
    return event


class EventRecorder:
    """Buffers events in memory; the worker half of the trace pipeline.

    Recorders never touch the filesystem — a worker process drains its
    recorder into the unit result it returns, and the parent's
    :class:`TraceWriter` persists the events. Appending is a single
    ``list.append``.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._events: list[dict] = []

    def emit(
        self,
        name: str,
        *,
        dur: float | None = None,
        task: str | None = None,
        point: int | None = None,
        unit: int | None = None,
        **fields: object,
    ) -> None:
        """Record one event (extra keyword fields go into ``f``)."""
        event: dict = {"v": EVENT_VERSION, "name": name, "t": self._clock()}
        if dur is not None:
            event["dur"] = max(0.0, float(dur))
        if task is not None:
            event["task"] = task
        if point is not None:
            event["point"] = point
        if unit is not None:
            event["unit"] = unit
        if fields:
            event["f"] = fields
        self._events.append(event)

    @contextmanager
    def span(
        self, name: str, *, task: str | None = None, **fields: object
    ) -> Iterator[None]:
        """Time a block and emit one event with its duration on exit."""
        start = self._clock()
        try:
            yield
        finally:
            self.emit(name, dur=self._clock() - start, task=task, **fields)

    @property
    def events(self) -> tuple[dict, ...]:
        return tuple(self._events)

    def drain(self) -> tuple[dict, ...]:
        """Return all buffered events and clear the buffer."""
        events = tuple(self._events)
        self._events.clear()
        return events


# ----------------------------------------------------------------------
# module-level recording scope
# ----------------------------------------------------------------------
# A plain module-level stack: experiment code evaluates one work unit
# at a time per process, on one thread, so scopes never interleave.
_RECORDERS: list[EventRecorder] = []


def active_recorder() -> EventRecorder | None:
    """The innermost installed recorder, or ``None`` (tracing off)."""
    return _RECORDERS[-1] if _RECORDERS else None


@contextmanager
def recording(
    recorder: EventRecorder | None = None,
) -> Iterator[EventRecorder]:
    """Install ``recorder`` (or a fresh one) for the dynamic extent."""
    scoped = recorder if recorder is not None else EventRecorder()
    _RECORDERS.append(scoped)
    try:
        yield scoped
    finally:
        _RECORDERS.pop()


def emit(
    name: str,
    *,
    dur: float | None = None,
    task: str | None = None,
    point: int | None = None,
    unit: int | None = None,
    **fields: object,
) -> None:
    """Emit an event to the active recorder; no-op when tracing is off.

    Accepts the full envelope (``dur``/``task``/``point``/``unit``)
    so correlation ids land as top-level record fields, never inside
    the ``f`` payload — the same signature as
    :meth:`EventRecorder.emit` and :meth:`TraceWriter.emit`.
    """
    recorder = active_recorder()
    if recorder is not None:
        recorder.emit(
            name, dur=dur, task=task, point=point, unit=unit, **fields
        )


@contextmanager
def span(
    name: str, *, task: str | None = None, **fields: object
) -> Iterator[None]:
    """Module-level :meth:`EventRecorder.span`; no-op when tracing is off."""
    recorder = active_recorder()
    if recorder is None:
        yield
        return
    with recorder.span(name, task=task, **fields):
        yield


# ----------------------------------------------------------------------
# JSONL sink (parent process only)
# ----------------------------------------------------------------------
class TraceWriter:
    """Append-only JSONL sink; the sole writer of one trace file.

    Stamps the run correlation id (and, for shipped worker buffers,
    the point/unit ids) onto every record and validates each line
    before writing. Lines are compact, key-sorted JSON, so identical
    event streams serialise identically.
    """

    def __init__(self, path: str | Path, run_id: str) -> None:
        self.path = Path(path)
        self.run_id = run_id
        self._clock = time.perf_counter
        try:
            self._file: IO[str] | None = open(self.path, "w")
        except OSError as exc:
            raise ObservabilityError(
                f"cannot open trace file {self.path}: {exc}"
            ) from exc
        self.lines_written = 0
        #: Lines replaced by an injected ``trace.corrupt`` fault.
        self.lines_corrupted = 0

    def write(
        self,
        event: Mapping[str, object],
        *,
        point: int | None = None,
        unit: int | None = None,
    ) -> None:
        """Stamp correlation ids onto one event and append it."""
        if self._file is None:
            raise ObservabilityError(f"trace file {self.path} already closed")
        record = dict(event)
        record.setdefault("run", self.run_id)
        if point is not None:
            record.setdefault("point", point)
        if unit is not None:
            record.setdefault("unit", unit)
        require_valid_event(record, where=str(self.path))
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        # Imported lazily: repro.faults emits fault.* events through
        # this module, so a top-level import would be circular.
        from repro.faults import injection as faults

        spec = faults.fire("trace.corrupt", point=point, unit=unit)
        if spec is not None:
            # Simulate a torn or garbled append: the reader side must
            # survive it (see read_trace_lenient). A truncated line is
            # written without its newline — exactly what a crash mid-
            # write leaves behind at the end of a JSONL file. The
            # injection itself is recorded first (serialised directly;
            # going through write() again would re-trigger the fault),
            # so the trace proves what was injected where.
            marker: dict = {
                "v": EVENT_VERSION,
                "name": "fault.trace.corrupt",
                "t": self._clock(),
                "run": self.run_id,
                "f": {"mode": spec.mode, "name": record.get("name")},
            }
            if point is not None:
                marker["point"] = point
            if unit is not None:
                marker["unit"] = unit
            self._file.write(
                json.dumps(marker, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self.lines_written += 1
            if spec.mode == "truncate":
                self._file.write(line[: max(1, len(line) // 2)])
            else:
                self._file.write("{corrupt trace line (injected)\n")
            self.lines_corrupted += 1
            return
        self._file.write(line + "\n")
        self.lines_written += 1

    def write_events(
        self,
        events: "tuple[Mapping[str, object], ...] | list[Mapping[str, object]]",
        *,
        point: int | None = None,
        unit: int | None = None,
    ) -> None:
        """Append a worker's buffered events under one (point, unit)."""
        for event in events:
            self.write(event, point=point, unit=unit)

    def emit(
        self,
        name: str,
        *,
        dur: float | None = None,
        point: int | None = None,
        unit: int | None = None,
        task: str | None = None,
        **fields: object,
    ) -> None:
        """Build and append one parent-side event directly."""
        event: dict = {"v": EVENT_VERSION, "name": name, "t": self._clock()}
        if dur is not None:
            event["dur"] = max(0.0, float(dur))
        if task is not None:
            event["task"] = task
        if fields:
            event["f"] = fields
        self.write(event, point=point, unit=unit)

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_trace(path: str | Path) -> list[dict]:
    """Read and validate every event of a JSONL trace file.

    Strict: the first corrupt line raises
    :class:`~repro.errors.ObservabilityError`. Readers that must
    survive crash-truncated or partially-corrupt traces use
    :func:`read_trace_lenient` instead.
    """
    path = Path(path)
    if not path.exists():
        raise ObservabilityError(f"trace file not found: {path}")
    events: list[dict] = []
    try:
        handle = open(path)
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"{path}:{lineno}: invalid JSON: {exc}"
                ) from exc
            events.append(require_valid_event(event, where=f"{path}:{lineno}"))
    return events


@dataclass
class TraceCorruption:
    """Explicit corruption counters of one lenient trace read.

    Attributes:
        bad_json: Lines that are not parseable JSON (torn appends,
            injected garbage). A final line cut mid-record — the
            classic crash signature — is additionally counted in
            ``truncated_final``.
        invalid_schema: Parseable lines whose record violates
            :data:`EVENT_SCHEMA` (other than the version field).
        version_mismatch: Records stamped with an event version other
            than :data:`EVENT_VERSION` (written by a different build).
        truncated_final: 1 when the file's last line is corrupt —
            i.e. the trace was torn mid-append by a crash.
    """

    bad_json: int = 0
    invalid_schema: int = 0
    version_mismatch: int = 0
    truncated_final: int = 0

    @property
    def total(self) -> int:
        """Corrupt lines skipped (``truncated_final`` is a subset flag)."""
        return self.bad_json + self.invalid_schema + self.version_mismatch

    def as_dict(self) -> dict[str, int]:
        """Nonzero counters only, for compact reporting."""
        counters = {
            "bad_json": self.bad_json,
            "invalid_schema": self.invalid_schema,
            "version_mismatch": self.version_mismatch,
            "truncated_final": self.truncated_final,
        }
        return {name: value for name, value in counters.items() if value}


def read_trace_lenient(
    path: str | Path,
) -> tuple[list[dict], TraceCorruption]:
    """Read a JSONL trace, skipping corrupt lines instead of raising.

    Returns the valid events plus a :class:`TraceCorruption` count of
    everything skipped, so callers can report exactly how much of the
    trace was lost — a crash-truncated final line, injected garbage, a
    schema-version mismatch — rather than dying on it or silently
    pretending the trace is complete.
    """
    path = Path(path)
    if not path.exists():
        raise ObservabilityError(f"trace file not found: {path}")
    events: list[dict] = []
    corruption = TraceCorruption()
    last_line_bad = False
    try:
        handle = open(path)
    except OSError as exc:
        raise ObservabilityError(f"cannot read trace {path}: {exc}") from exc
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            last_line_bad = True
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                corruption.bad_json += 1
                continue
            if not isinstance(event, dict):
                corruption.invalid_schema += 1
                continue
            if event.get("v") != EVENT_VERSION:
                corruption.version_mismatch += 1
                continue
            if validate_event(event):
                corruption.invalid_schema += 1
                continue
            events.append(event)
            last_line_bad = False
    if last_line_bad:
        corruption.truncated_final = 1
    return events, corruption
