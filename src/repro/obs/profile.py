"""Trace aggregation: turn an event log into a per-phase profile.

``repro profile`` (and the tests) feed a JSONL trace produced by
``repro figure --trace`` through :func:`aggregate_events` and render
the result with :func:`render_profile`:

* **work counters** — per-event-name counts restricted to the
  deterministic work events (solves, fixpoint iterations, cache
  traffic, LS rounds, unit/point lifecycle). These are identical
  between ``--jobs 1`` and ``--jobs N`` runs of the same
  configuration, which the test suite pins.
* **analysis cache counters** — the summed ``cache.*`` event amounts.
  They reconcile *exactly* with the ``PointResult.analysis_stats``
  of the same run (both count the same
  :meth:`repro.analysis.cache.AnalysisCache.bump` calls), which
  :func:`reconcile` verifies — against the trace's own ``point.end``
  records (each carries its point's ``stats`` and ``failures``) or
  against point results.
* **solve outcomes** — solver status and degradation-level breakdown.
* **timings** — wall-time totals/means/maxima per event name plus a
  solve-duration histogram. Timing values are measurements, not part
  of the determinism contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import ObservabilityError
from repro.obs.events import is_runtime_event
from repro.sim.metrics import text_histogram

#: Event name marking one captured taskset/protocol failure.
FAILURE_EVENT = "protocol.failure"

_CACHE_PREFIX = "cache."


@dataclass
class PhaseTiming:
    """Wall-time statistics of one event name."""

    count: int = 0
    total: float = 0.0
    maximum: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        self.maximum = max(self.maximum, duration)


@dataclass
class ProfileReport:
    """Aggregate view of one trace (see module docstring)."""

    counts: dict[str, int] = field(default_factory=dict)
    cache_counters: dict[str, int] = field(default_factory=dict)
    solve_statuses: dict[str, int] = field(default_factory=dict)
    solve_degradations: dict[int, int] = field(default_factory=dict)
    timings: dict[str, PhaseTiming] = field(default_factory=dict)
    solve_durations: list[float] = field(default_factory=list)
    runs: set[str] = field(default_factory=set)
    events_total: int = 0
    #: Nonzero corruption counters of a lenient trace read (see
    #: :class:`repro.obs.events.TraceCorruption.as_dict`); empty for a
    #: clean trace or a strict read.
    corruption: dict[str, int] = field(default_factory=dict)
    #: Summed ``stats`` and ``failures`` of the ``point.end`` records.
    point_stats: dict[str, int] = field(default_factory=dict)
    point_failures: int = 0

    @property
    def failures(self) -> int:
        """Captured taskset/protocol failures recorded in the trace."""
        return self.counts.get(FAILURE_EVENT, 0)

    def deterministic_counts(self) -> dict[str, int]:
        """Event counts covered by the jobs=1 == jobs=N contract."""
        return {
            name: count
            for name, count in sorted(self.counts.items())
            if not is_runtime_event(name)
        }

    def runtime_counts(self) -> dict[str, int]:
        """Event counts outside the determinism contract."""
        return {
            name: count
            for name, count in sorted(self.counts.items())
            if is_runtime_event(name)
        }


def aggregate_events(events: Iterable[Mapping[str, object]]) -> ProfileReport:
    """Fold validated trace events into a :class:`ProfileReport`."""
    report = ProfileReport()
    for event in events:
        name = event.get("name")
        if not isinstance(name, str):
            raise ObservabilityError(f"event without a name: {event!r}")
        report.events_total += 1
        report.counts[name] = report.counts.get(name, 0) + 1
        run = event.get("run")
        if isinstance(run, str):
            report.runs.add(run)
        fields = event.get("f")
        fields = fields if isinstance(fields, dict) else {}
        if name.startswith(_CACHE_PREFIX):
            counter = name[len(_CACHE_PREFIX):]
            amount = fields.get("amount", 1)
            amount = amount if isinstance(amount, int) else 1
            report.cache_counters[counter] = (
                report.cache_counters.get(counter, 0) + amount
            )
        if name == "point.end":
            stats = fields.get("stats")
            stats = stats if isinstance(stats, dict) else {}
            for counter, value in stats.items():
                if isinstance(value, int):
                    report.point_stats[counter] = (
                        report.point_stats.get(counter, 0) + value
                    )
            failures = fields.get("failures")
            if isinstance(failures, int):
                report.point_failures += failures
        duration = event.get("dur")
        if isinstance(duration, (int, float)):
            report.timings.setdefault(name, PhaseTiming()).add(float(duration))
            if name == "solve":
                report.solve_durations.append(float(duration))
        if name == "solve":
            status = fields.get("status")
            if isinstance(status, str):
                report.solve_statuses[status] = (
                    report.solve_statuses.get(status, 0) + 1
                )
            degradation = fields.get("degradation")
            if isinstance(degradation, int):
                report.solve_degradations[degradation] = (
                    report.solve_degradations.get(degradation, 0) + 1
                )
    return report


def render_profile(report: ProfileReport, timings: bool = True) -> str:
    """Human-readable profile of one trace.

    With ``timings=False`` only the deterministic sections are
    rendered: the output of two runs of the same configuration is then
    identical regardless of worker count — the form the determinism
    tests compare.
    """
    lines: list[str] = []
    runs = ", ".join(sorted(report.runs)) or "(unstamped)"
    deterministic = report.deterministic_counts()
    # With timings off the header must stay deterministic too, so it
    # counts only the work events (runtime-event counts vary per run).
    total = report.events_total if timings else sum(deterministic.values())
    kind = "events" if timings else "work events"
    lines.append(f"trace profile — run {runs}, {total} {kind}")
    lines.append("")
    lines.append("work events (deterministic across --jobs)")
    lines.append(f"  {'event':<28}{'count':>10}")
    for name, count in deterministic.items():
        lines.append(f"  {name:<28}{count:>10}")
    if report.cache_counters:
        lines.append("")
        lines.append("analysis cache counters (== PointResult.analysis_stats)")
        for name, value in sorted(report.cache_counters.items()):
            lines.append(f"  {name:<28}{value:>10}")
    if report.solve_statuses or report.solve_degradations:
        lines.append("")
        lines.append("solve outcomes")
        for status, count in sorted(report.solve_statuses.items()):
            lines.append(f"  status={status:<21}{count:>10}")
        for level, count in sorted(report.solve_degradations.items()):
            lines.append(f"  degradation={level:<16}{count:>10}")
    if report.corruption:
        lines.append("")
        lines.append("trace corruption (lines skipped by the lenient reader)")
        for name, value in sorted(report.corruption.items()):
            lines.append(f"  {name:<28}{value:>10}")
    if not timings:
        return "\n".join(lines)
    runtime = report.runtime_counts()
    if runtime:
        lines.append("")
        lines.append("runtime events (vary with workers/machine)")
        for name, count in runtime.items():
            lines.append(f"  {name:<28}{count:>10}")
    if report.timings:
        lines.append("")
        lines.append("timings")
        lines.append(
            f"  {'event':<28}{'count':>8}{'total s':>12}"
            f"{'mean s':>12}{'max s':>12}"
        )
        for name in sorted(report.timings):
            timing = report.timings[name]
            lines.append(
                f"  {name:<28}{timing.count:>8}{timing.total:>12.3f}"
                f"{timing.mean:>12.6f}{timing.maximum:>12.6f}"
            )
    if report.solve_durations:
        lines.append("")
        lines.append(
            text_histogram(
                report.solve_durations,
                title="solve wall-time histogram (seconds)",
            )
        )
    return "\n".join(lines)


def reconcile(
    report: ProfileReport,
    points: "Iterable[object] | None" = None,
) -> list[str]:
    """Cross-check a trace profile against the run's point results.

    ``points`` is an iterable of
    :class:`repro.experiments.runner.PointResult` (duck-typed: only
    ``analysis_stats`` and ``failures`` are read); by default the
    trace's own ``point.end`` records stand in for them. Returns a list
    of mismatch descriptions — empty when the trace's cache counters
    equal the summed ``analysis_stats`` and the ``protocol.failure``
    event count equals the failure-ledger record count. Points loaded
    from artifacts that predate ``analysis_stats`` cannot reconcile
    and will be reported as mismatches.
    """
    expected: dict[str, int] = {}
    ledger = 0
    if points is None:
        expected = dict(report.point_stats)
        ledger = report.point_failures
    for point in points or ():
        stats = getattr(point, "analysis_stats", {}) or {}
        for name, value in stats.items():
            expected[name] = expected.get(name, 0) + int(value)
        ledger += len(getattr(point, "failures", ()))
    problems: list[str] = []
    for name in sorted(set(expected) | set(report.cache_counters)):
        traced = report.cache_counters.get(name, 0)
        recorded = expected.get(name, 0)
        if traced != recorded:
            problems.append(
                f"cache counter {name!r}: trace says {traced}, "
                f"point results say {recorded}"
            )
    if report.failures != ledger:
        problems.append(
            f"failure events: trace says {report.failures}, "
            f"failure ledger holds {ledger} records"
        )
    return problems


def profile_trace(
    path: str, timings: bool = True, lenient: bool = False
) -> str:
    """Read, validate, aggregate, and render one trace file.

    With ``lenient=True`` corrupt lines are skipped and surfaced as
    explicit corruption counters in the rendered report instead of
    aborting the read (the ``repro profile`` behaviour).
    """
    from repro.obs.events import read_trace, read_trace_lenient

    if lenient:
        events, corruption = read_trace_lenient(path)
        report = aggregate_events(events)
        report.corruption = corruption.as_dict()
    else:
        report = aggregate_events(read_trace(path))
    return render_profile(report, timings=timings)


def compare_profiles(
    a: Sequence[Mapping[str, object]], b: Sequence[Mapping[str, object]]
) -> list[str]:
    """Differences between two traces' deterministic aggregates.

    Used by the determinism tests (and handy interactively): returns
    an empty list exactly when the two event streams agree on every
    work-event count, cache counter, and solve outcome.
    """
    ra, rb = aggregate_events(a), aggregate_events(b)
    problems: list[str] = []
    if ra.deterministic_counts() != rb.deterministic_counts():
        problems.append(
            f"work-event counts differ: {ra.deterministic_counts()} != "
            f"{rb.deterministic_counts()}"
        )
    if ra.cache_counters != rb.cache_counters:
        problems.append(
            f"cache counters differ: {ra.cache_counters} != {rb.cache_counters}"
        )
    if ra.solve_statuses != rb.solve_statuses:
        problems.append(
            f"solve statuses differ: {ra.solve_statuses} != {rb.solve_statuses}"
        )
    if ra.solve_degradations != rb.solve_degradations:
        problems.append(
            f"solve degradations differ: {ra.solve_degradations} != "
            f"{rb.solve_degradations}"
        )
    return problems
