"""Span recording around the public functions of each layer.

Tracing lives entirely in the benchmark: :func:`install` replaces the
public entry point of each layer with a timing wrapper, in every
``repro`` module that bound it by name, and returns the function that
puts the originals back. Program code is never edited.

A span is ``[name, start, end, pid, tid, sid, parent, info]``; times
are ``time.perf_counter()`` readings, which share one monotonic clock
across the processes of a host, so spans from workers line up with
the parent's request windows. Each process keeps its spans in memory.
Forked pool workers and the sweep-service process *spill* them: when
a root span (one with no open parent on its thread) ends, the spans
collected so far are appended to ``spans-<pid>.jsonl`` in the spill
directory, and :meth:`Recorder.collect` merges those files with the
parent's own spans.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

Span = list

#: Every protocol a workload evaluates (``analysis.<protocol>.busy_s``).
PROTOCOLS = ("nps_carry", "wasly", "proposed", "threshold", "regulated")

NAME, START, END, PID, TID, SID, PARENT, INFO = range(8)


class Recorder:
    """In-memory span store of one process (spilling after a fork)."""

    def __init__(self, spill_dir: "str | Path") -> None:
        self.spill_dir = Path(spill_dir)
        self.spill = False
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.spans = []
        self._local = threading.local()
        self.spill = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        pid = os.getpid()
        span = [
            name,
            time.perf_counter(),
            None,
            pid,
            threading.get_ident(),
            f"{pid}.{next(self._ids)}",
            stack[-1][SID] if stack else None,
            None,
        ]
        stack.append(span)
        return span

    def end(self, span: Span, info: object = None) -> None:
        span[END] = time.perf_counter()
        span[INFO] = info
        stack = self._stack()
        # Remove by identity: coroutines may close spans out of order.
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is span:
                del stack[index]
                break
        with self._lock:
            self.spans.append(span)
            if self.spill and not stack:
                self._spill()

    def _spill(self) -> None:
        if not self.spans:
            return
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """This process's spans plus every spilled span, spill files consumed."""
        merged = list(self.spans)
        self.spans = []
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    merged.extend(json.loads(line) for line in handle if line.strip())
                path.unlink()
        return merged


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap(
    recorder: Recorder,
    name: str,
    fn: Callable,
    info: "Callable[[tuple, dict, object], object] | None" = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(span, "error")
            raise
        recorder.end(span, info(args, kwargs, result) if info else None)
        return result

    return wrapper


def _wrap_async(recorder: Recorder, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            return await fn(*args, **kwargs)
        finally:
            recorder.end(span)

    return wrapper


def _wrap_generator(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """Time a generator function to exhaustion (its callers consume it whole)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            items = list(fn(*args, **kwargs))
        finally:
            recorder.end(span)
        return iter(items)

    return wrapper


def _wrap_compile(recorder: Recorder, fn: Callable) -> Callable:
    """``MilpModel.compile``, noting whether the cached lowering was reused."""

    @functools.wraps(fn)
    def wrapper(model):
        reused = getattr(model, "_compiled", None) is not None
        span = recorder.begin("milp.compile")
        try:
            return fn(model)
        finally:
            recorder.end(span, "reuse" if reused else None)

    return wrapper


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary; returns the function that unwraps them."""
    import repro.experiments  # noqa: F401  (binds the names patched below)
    import repro.service  # noqa: F401
    from repro.analysis import cache, schedulability, store
    from repro.analysis.proposed import closed_form, formulation
    from repro.experiments import units
    from repro.generator import taskset_gen
    from repro.milp import highs, model, relaxation
    from repro.service import client, coordinator, wire

    patches = _Patches()
    wrap = functools.partial(_wrap, recorder)

    patches.everywhere(
        taskset_gen.generate_tasksets,
        _wrap_generator(recorder, "generator", taskset_gen.generate_tasksets),
    )
    # Only the exact backend's solver call: the LP relaxation calls the
    # same scipy function and is timed as ``milp.lp`` instead.
    patches.set(highs, "milp", wrap("milp.solve", highs.milp))
    for fn in (formulation.build_delay_milp, formulation.update_delay_milp):
        patches.everywhere(fn, wrap("milp.build", fn))
    patches.set(
        model.MilpModel, "compile", _wrap_compile(recorder, model.MilpModel.compile)
    )
    patches.everywhere(relaxation.screen_batch, wrap("milp.lp", relaxation.screen_batch))
    patches.set(
        relaxation.LpRelaxationBackend,
        "solve_compiled",
        wrap("milp.lp", relaxation.LpRelaxationBackend.solve_compiled),
    )
    patches.everywhere(
        closed_form.closed_form_delay_bounds_batch,
        wrap("screen.closed_form", closed_form.closed_form_delay_bounds_batch),
    )
    patches.everywhere(
        schedulability.is_schedulable,
        wrap(
            "analysis",
            schedulability.is_schedulable,
            lambda args, kwargs, result: args[1] if len(args) > 1 else kwargs["protocol"],
        ),
    )
    patches.set(
        cache.AnalysisCache,
        "get",
        wrap(
            "cache.get",
            cache.AnalysisCache.get,
            lambda args, kwargs, result: "hit" if result is not None else None,
        ),
    )
    store_cls = store.PersistentStore
    patches.set(store_cls, "fetch", wrap("store.fetch", store_cls.fetch))
    patches.set(
        store_cls,
        "fetch_many",
        wrap("store.fetch_many", store_cls.fetch_many, lambda a, k, result: len(result)),
    )
    patches.set(store_cls, "store", wrap("store.upsert", store_cls.store))
    patches.everywhere(units._evaluate_unit, wrap("experiments.unit", units._evaluate_unit))
    patches.everywhere(units._merge_units, wrap("experiments.merge", units._merge_units))
    patches.everywhere(
        wire.encode_frame,
        wrap("service.wire.encode", wire.encode_frame, lambda a, k, result: len(result)),
    )
    patches.set(
        wire,
        "_decode_payload",
        wrap("service.wire.decode", wire._decode_payload, lambda args, k, r: len(args[0])),
    )
    patches.set(client, "recv_message", wrap("service.client.recv", client.recv_message))
    patches.set(
        coordinator.SweepService,
        "_handle_client",
        _wrap_async(recorder, "service.coordinator", coordinator.SweepService._handle_client),
    )
    return patches.undo


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Each span's duration minus the part of it its child spans cover, by sid."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[SID]: (span[END] - span[START])
        - covered(children.get(span[SID], ()), span[START], span[END])
        for span in spans
    }


def outermost(spans: Sequence[Span]) -> list[Span]:
    """Spans with no ancestor of the same name (nested re-entries count once)."""
    by_sid = {span[SID]: span for span in spans}
    kept = []
    for span in spans:
        parent = by_sid.get(span[PARENT])
        while parent is not None and parent[NAME] != span[NAME]:
            parent = by_sid.get(parent[PARENT])
        if parent is None:
            kept.append(span)
    return kept


def in_windows(spans: Iterable[Span], windows: Sequence[tuple[float, float]]) -> list[Span]:
    """Spans that start inside one of the (disjoint) timed request windows."""
    windows = sorted(windows)
    starts = [lo for lo, _ in windows]
    kept = []
    for span in spans:
        index = bisect.bisect_right(starts, span[START]) - 1
        if index >= 0 and span[START] <= windows[index][1]:
            kept.append(span)
    return kept


def residual(spans: Sequence[Span], windows: Sequence[tuple[float, float]]) -> float:
    """Request wall time that no span, in any process, covers."""
    union: list[list[float]] = []
    for start, end in sorted((span[START], span[END]) for span in spans):
        if union and start <= union[-1][1]:
            union[-1][1] = max(union[-1][1], end)
        else:
            union.append([start, end])
    starts = [start for start, _ in union]
    total = 0.0
    for lo, hi in windows:
        index = max(bisect.bisect_right(starts, lo) - 1, 0)
        total += hi - lo
        while index < len(union) and union[index][0] < hi:
            total -= max(0.0, min(union[index][1], hi) - max(union[index][0], lo))
            index += 1
    return total


def layer_metrics(
    spans: Sequence[Span],
    windows: Sequence[tuple[float, float]],
    jobs: int,
) -> dict[str, float]:
    """Per-layer sums over the spans that start inside the timed windows."""
    spans = in_windows(spans, windows)
    own = self_times(spans)
    top: dict[str, list[Span]] = {}
    for span in outermost(spans):
        top.setdefault(span[NAME], []).append(span)
    metrics: dict[str, float] = {}

    def pick(name: str) -> list[Span]:
        return top.get(name, [])

    def busy(name: str) -> float:
        return sum(span[END] - span[START] for span in pick(name))

    for name in ("generator", "milp.solve", "milp.build", "milp.compile", "milp.lp",
                 "screen.closed_form", "cache.get", "store.fetch", "store.upsert"):
        metrics[f"{name}.calls"] = len(pick(name))
        metrics[f"{name}.busy_s"] = busy(name)
    solves = pick("milp.solve")
    metrics["milp.solve.max_s"] = max((s[END] - s[START] for s in solves), default=0.0)
    metrics["milp.compile.reuse"] = sum(1 for s in pick("milp.compile") if s[INFO] == "reuse")

    verdicts = [s for s in pick("analysis") if s[INFO] != "error"]
    metrics["analysis.verdicts"] = len(verdicts)
    metrics["analysis.busy_s"] = busy("analysis")
    metrics["analysis.self_s"] = sum(own[s[SID]] for s in pick("analysis"))
    for protocol in PROTOCOLS:
        metrics[f"analysis.{protocol}.busy_s"] = sum(
            s[END] - s[START] for s in pick("analysis") if s[INFO] == protocol
        )

    gets = pick("cache.get")
    metrics["cache.hit_ratio"] = (
        sum(1 for s in gets if s[INFO] == "hit") / len(gets) if gets else 0.0
    )
    metrics["store.fetch_many.rows"] = sum(s[INFO] or 0 for s in pick("store.fetch_many")
                                           if s[INFO] != "error")
    metrics["store.fetch_many.busy_s"] = busy("store.fetch_many")

    wall = sum(hi - lo for lo, hi in windows)
    metrics["experiments.unit.busy_s"] = busy("experiments.unit")
    metrics["experiments.merge.busy_s"] = busy("experiments.merge")
    metrics["experiments.dispatch.idle_s"] = jobs * wall - metrics["experiments.unit.busy_s"]

    wire_bytes = 0
    for side in ("encode", "decode"):
        name = f"service.wire.{side}"
        metrics[f"{name}.busy_s"] = busy(name)
        wire_bytes += sum(s[INFO] for s in pick(name) if isinstance(s[INFO], int))
    metrics["service.wire.bytes"] = wire_bytes
    metrics["service.coordinator.self_s"] = sum(
        own[s[SID]] for s in pick("service.coordinator")
    )
    metrics["service.client.wait_s"] = sum(own[s[SID]] for s in pick("service.client.recv"))
    metrics["trace.residual_s"] = residual(spans, windows)
    return metrics
