"""Correctness gates: verdict tables, exact work counters, store snapshots."""

from __future__ import annotations

import hashlib
import json
import sqlite3
from pathlib import Path
from typing import Iterable, Mapping

#: ``count.*`` metric -> the ``analysis_stats`` counter it sums.
COUNTERS = {
    "count.milp_solves": "milp_solves",
    "count.lp_solves": "lp_solves",
    "count.cache_hits": "hits",
    "count.cache_misses": "misses",
    "count.persistent_hits": "persistent.hits",
    "count.unit_store_hits": "unit_store.hits",
    "count.closed_form_screens": "closed_form_screens",
    "count.lp_screens": "lp_screens",
    "count.screened_out": "screened_out",
    "count.milp_warm_starts": "milp_warm_starts",
}


def config_key(config) -> dict:
    """The fields of an experiment config that decide its task sets and verdicts."""
    return {
        "inset": config.name,
        "x": [point.x for point in config.points],
        "sets_per_point": config.sets_per_point,
        "seed": config.seed,
        "protocols": list(config.protocols),
        "method": config.method,
        "ls_policy": config.ls_policy,
    }


def verdict_table(sweep, protocols: "Iterable[str] | None" = None) -> dict:
    """Per-point ratios and failure ledgers of a sweep, JSON-shaped.

    ``protocols`` restricts the table to some columns (and their
    failures); the default keeps every protocol of the sweep.
    """
    wanted = tuple(protocols) if protocols is not None else sweep.config.protocols
    return {
        "points": [
            {
                "x": point.x,
                "ratios": {p: point.ratios[p] for p in wanted},
                "failures": [
                    [f.protocol, f.taskset_index, f.error_type]
                    for f in point.failures
                    if f.protocol in wanted
                ],
            }
            for point in sweep.points
        ]
    }


def compare_tables(expected: Mapping, actual: Mapping, label: str) -> list[str]:
    """Every difference between two verdict tables, as readable lines."""
    problems = []
    want, got = expected["points"], actual["points"]
    if [p["x"] for p in want] != [p["x"] for p in got]:
        return [f"{label}: sweep points {[p['x'] for p in got]} != {[p['x'] for p in want]}"]
    for w, g in zip(want, got):
        for protocol, ratio in w["ratios"].items():
            if g["ratios"].get(protocol) != ratio:
                problems.append(
                    f"{label}: x={w['x']} {protocol} ratio "
                    f"{g['ratios'].get(protocol)} != expected {ratio}"
                )
        if [list(f) for f in g["failures"]] != [list(f) for f in w["failures"]]:
            problems.append(
                f"{label}: x={w['x']} failure ledger {g['failures']} != {w['failures']}"
            )
    return problems


def failed_pairs(sweep) -> int:
    """(task set, protocol) pairs recorded in the sweep's failure ledgers."""
    return sum(len(point.failures) for point in sweep.points)


def attempted_pairs(sweep) -> int:
    return sum(point.sets_evaluated for point in sweep.points) * len(sweep.config.protocols)


def counts(sweep) -> dict[str, int]:
    """The ``count.*`` work counters of one sweep, summed over its points."""
    totals = {name: 0 for name in COUNTERS}
    for point in sweep.points:
        for name, key in COUNTERS.items():
            totals[name] += int(point.analysis_stats.get(key, 0))
    return totals


def check_counts_repeat(samples: list[dict[str, int]]) -> list[str]:
    """Every request of one run must report the same counters."""
    return [
        f"request {index}: counters {sample} differ from request 0: {samples[0]}"
        for index, sample in enumerate(samples)
        if sample != samples[0]
    ]


def check_counts_recorded(path: Path, source: str, sample: dict[str, int]) -> list[str]:
    """Compare with the counters an earlier run of the same source recorded.

    The record is rewritten when the source digest differs (another
    revision may do different work); within one revision the counters
    must match exactly.
    """
    if path.is_file():
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("source") == source:
            if record["counts"] != sample:
                return [f"counters {sample} differ from an earlier run's {record['counts']}"]
            return []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"source": source, "counts": sample}), encoding="utf-8")
    tmp.replace(path)
    return []


def source_digest(paths: Iterable[Path]) -> str:
    """sha256 over the named files' paths and bytes, in sorted order."""
    sha = hashlib.sha256()
    for path in sorted(paths):
        sha.update(str(path).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def snapshot(source: "str | Path", target: "str | Path") -> int:
    """Copy a sqlite store through the backup API; returns the entry count.

    The backup reads through a connection, so rows still in the
    write-ahead log are included, even while another connection holds
    the source open — a plain file copy would miss them.
    """
    target = Path(target)
    for suffix in ("", "-wal", "-shm"):
        Path(f"{target}{suffix}").unlink(missing_ok=True)
    src = sqlite3.connect(str(source))
    dst = sqlite3.connect(str(target))
    try:
        src.backup(dst)
        return int(dst.execute("SELECT COUNT(*) FROM entries").fetchone()[0])
    finally:
        dst.close()
        src.close()
