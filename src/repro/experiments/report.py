"""Reporting: CSV export, tables, and ASCII plots of sweep results.

No plotting library is available offline, so figures are rendered as
fixed-width ASCII charts — one mark per protocol — which is enough to
eyeball the crossovers and gaps the paper describes.
"""

from __future__ import annotations

import io
from typing import Iterable

from repro.experiments.runner import PointResult, SweepResult

#: Plot marks per protocol, in drawing order (later overdraws earlier).
_MARKS = {
    "nps": "n",
    "nps_carry": "n",
    "wasly": "w",
    "proposed": "P",
    "threshold": "t",
    "regulated": "r",
}


def baseline_protocol(protocols: "Iterable[str]") -> str:
    """The protocol advantage gaps are reported against.

    ``"proposed"`` when it is in the sweep (the paper's framing);
    otherwise the last protocol of the tuple — never a hard-coded name,
    so k-protocol sweeps without ``"proposed"`` still report gaps
    instead of crashing.
    """
    names = list(protocols)
    if not names:
        raise ValueError("no protocols to pick a baseline from")
    return "proposed" if "proposed" in names else names[-1]


def sweep_to_csv(result: SweepResult) -> str:
    """Serialise a sweep as CSV (x column + one column per protocol)."""
    protocols = list(result.config.protocols)
    out = io.StringIO()
    out.write(",".join([result.config.x_label, *protocols, "sets", "seconds"]))
    out.write("\n")
    for point in result.points:
        row = [f"{point.x:g}"]
        row += [f"{point.ratios[p]:.4f}" for p in protocols]
        row.append(str(point.sets_evaluated))
        row.append(f"{point.elapsed_seconds:.2f}")
        out.write(",".join(row) + "\n")
    return out.getvalue()


def aggregate_analysis_stats(points: "Iterable[PointResult]") -> dict[str, int]:
    """Summed per-point analysis-cache counters of a run.

    The same totals a trace's ``cache.*`` events add up to (see
    :func:`repro.obs.profile.reconcile`) — shared here so the sweep
    table and the trace reconciliation agree on the arithmetic.
    """
    stats: dict[str, int] = {}
    for point in points:
        for name, value in point.analysis_stats.items():
            stats[name] = stats.get(name, 0) + value
    return stats


def render_sweep_table(result: SweepResult, baseline: str | None = None) -> str:
    """Human-readable table of the sweep's schedulability ratios.

    ``baseline`` names the protocol the advantage lines compare
    against; ``None`` picks :func:`baseline_protocol` (``"proposed"``
    when swept, else the last protocol).
    """
    protocols = list(result.config.protocols)
    if baseline is None:
        baseline = baseline_protocol(protocols)
    header = f"{result.config.x_label:>8} | " + " | ".join(
        f"{p:>9}" for p in protocols
    )
    lines = [f"experiment {result.config.name}", header, "-" * len(header)]
    for point in result.points:
        cells = " | ".join(f"{point.ratios[p]:>9.3f}" for p in protocols)
        lines.append(f"{point.x:>8g} | {cells}")
    for protocol in protocols:
        if protocol == baseline:
            continue
        gap = result.advantage(baseline, protocol)
        lines.append(
            f"max advantage of {baseline} over {protocol}: {gap:+.3f}"
        )
    if result.failures:
        lines.append(
            f"failures: {len(result.failures)} taskset/protocol pairs "
            "(see failure ledger)"
        )
    stats = aggregate_analysis_stats(result.points)
    hits = stats.get("hits", 0)
    lookups = hits + stats.get("misses", 0)
    if lookups:
        lines.append(
            f"analysis cache: {hits} hits / {lookups} "
            f"lookups ({hits / lookups:.0%}), "
            f"{stats.get('milp_solves', 0)} MILP "
            f"({stats.get('milp_target_stops', 0)} stopped at target, "
            f"{stats.get('milp_cutoff_proofs', 0)} proved below cutoff) + "
            f"{stats.get('lp_solves', 0)} LP solves, "
            f"{stats.get('milp_warm_starts', 0)} warm starts"
        )
    screens = {
        "closed form": stats.get("closed_form_screens", 0),
        "LS case (b)": stats.get("screened_out", 0),
    }
    if any(screens.values()):
        lines.append(
            "screens: " + ", ".join(f"{n} {rung}" for rung, n in screens.items())
        )
    served = stats.get("unit_store.hits", 0)
    corrupt = stats.get("unit_store.corrupt", 0)
    if served or corrupt:
        line = f"unit store: {served} unit(s) served without analysis"
        if corrupt:
            line += f", {corrupt} corrupt row(s) dropped and re-evaluated"
        lines.append(line)
    return "\n".join(lines)


def render_failure_ledger(result: SweepResult) -> str:
    """Human-readable failure ledger of a sweep (empty string if clean)."""
    failures = result.failures
    if not failures:
        return ""
    lines = [
        f"failure ledger ({len(failures)} entries)",
        f"{result.config.x_label:>8} | {'protocol':>9} | {'seed':>6} | "
        f"{'set':>4} | {'digest':>16} | error",
    ]
    lines.append("-" * len(lines[-1]))
    for f in failures:
        degraded = f" [degradation={f.degradation}]" if f.degradation else ""
        lines.append(
            f"{f.x:>8g} | {f.protocol:>9} | {f.seed:>6} | "
            f"{f.taskset_index:>4} | {f.taskset_digest:>16} | "
            f"{f.error_type}: {f.message}{degraded}"
        )
    return "\n".join(lines)


def ascii_plot(
    result: SweepResult, width: int = 64, height: int = 16
) -> str:
    """Render the sweep as an ASCII chart (ratio on y in [0, 1])."""
    grid = [[" "] * width for _ in range(height)]
    xs = result.x_values
    x_min, x_max = min(xs), max(xs)
    span = (x_max - x_min) or 1.0

    def col(x: float) -> int:
        return min(width - 1, int(round((x - x_min) / span * (width - 1))))

    def row(ratio: float) -> int:
        return min(height - 1, int(round((1.0 - ratio) * (height - 1))))

    for protocol in result.config.protocols:
        mark = _MARKS.get(protocol, protocol[0].upper())
        for x, ratio in result.series(protocol):
            grid[row(ratio)][col(x)] = mark

    lines = [f"{result.config.name}: schedulability ratio vs {result.config.x_label}"]
    for r, cells in enumerate(grid):
        ratio_label = 1.0 - r / (height - 1)
        lines.append(f"{ratio_label:>5.2f} |" + "".join(cells))
    lines.append("      +" + "-" * width)
    lines.append(f"       {x_min:<10g}{'':^{max(0, width - 22)}}{x_max:>10g}")
    legend = ", ".join(
        f"{_MARKS.get(p, p[0].upper())}={p}" for p in result.config.protocols
    )
    lines.append(f"       marks: {legend}")
    return "\n".join(lines)
