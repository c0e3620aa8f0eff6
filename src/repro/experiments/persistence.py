"""Persistence for experiment results: the sweep export format.

Long sweeps are expensive; this module serialises a
:class:`~repro.experiments.runner.SweepResult` to JSON (losslessly for
the ratio data and the generation parameters) so finished runs can be
archived, reloaded for re-plotting, and merged — e.g. two 25-set runs
with disjoint seeds combine into one 50-set series. Resuming an
interrupted sweep is not this module's job: the unit rows of the
persistent store are the sweep's durable state (see
:mod:`repro.experiments.units`).

Every write is durable and atomic: it goes to a temp file in the
target directory, is flushed and ``fsync``\\ ed, renamed over the
target with ``os.replace`` (atomic on POSIX), and the containing
directory is ``fsync``\\ ed after the rename — so neither a process
kill nor a power cut mid-write can leave a truncated target. Transient
filesystem errors are retried with a short bounded backoff before
giving up; the ``fs.error`` fault site of :mod:`repro.faults` lets the
chaos suite prove that path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig, SweepPoint
from repro.experiments.units import FailureRecord, PointResult, SweepResult
from repro.faults import injection as faults
from repro.generator.taskset_gen import GenerationConfig
from repro.obs import events as obs

_FORMAT_VERSION = 1
#: Durable-write attempts before a filesystem error is fatal.
_WRITE_ATTEMPTS = 3


def _config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "name": config.name,
        "x_label": config.x_label,
        "sets_per_point": config.sets_per_point,
        "seed": config.seed,
        "protocols": list(config.protocols),
        "ls_policy": config.ls_policy,
        "method": config.method,
        "points": [
            {
                "x": point.x,
                "generation": dataclasses.asdict(point.generation),
            }
            for point in config.points
        ],
    }


def _config_from_dict(raw: dict) -> ExperimentConfig:
    return ExperimentConfig(
        name=raw["name"],
        x_label=raw["x_label"],
        points=tuple(
            SweepPoint(p["x"], GenerationConfig(**p["generation"]))
            for p in raw["points"]
        ),
        sets_per_point=raw["sets_per_point"],
        seed=raw["seed"],
        protocols=tuple(raw["protocols"]),
        ls_policy=raw["ls_policy"],
        method=raw["method"],
    )


def _point_to_dict(point: PointResult) -> dict:
    payload = {
        "x": point.x,
        "ratios": dict(point.ratios),
        "sets_evaluated": point.sets_evaluated,
        "elapsed_seconds": point.elapsed_seconds,
    }
    if point.failures:
        payload["failures"] = [dataclasses.asdict(f) for f in point.failures]
    if point.analysis_stats:
        payload["analysis_stats"] = dict(point.analysis_stats)
    return payload


def _point_from_dict(raw: dict) -> PointResult:
    return PointResult(
        x=raw["x"],
        ratios=raw["ratios"],
        sets_evaluated=raw["sets_evaluated"],
        elapsed_seconds=raw["elapsed_seconds"],
        failures=tuple(
            FailureRecord(**f) for f in raw.get("failures", ())
        ),
        analysis_stats=raw.get("analysis_stats", {}),
    )


def sweep_to_dict(result: SweepResult) -> dict:
    """Plain-dict representation of a sweep result."""
    return {
        "format_version": _FORMAT_VERSION,
        "config": _config_to_dict(result.config),
        "points": [_point_to_dict(point) for point in result.points],
    }


def sweep_from_dict(payload: dict) -> SweepResult:
    """Rebuild a sweep result from :func:`sweep_to_dict` output."""
    if payload.get("format_version") != _FORMAT_VERSION:
        raise ExperimentError(
            f"unsupported sweep format {payload.get('format_version')!r}"
        )
    config = _config_from_dict(payload["config"])
    points = tuple(_point_from_dict(p) for p in payload["points"])
    return SweepResult(config=config, points=points)


# ----------------------------------------------------------------------
# durable filesystem primitives
# ----------------------------------------------------------------------
def _fsync_directory(directory: Path) -> None:
    """Persist a directory entry (the rename) past the page cache.

    Best-effort: some filesystems/platforms refuse to open or fsync a
    directory — there the rename's durability is whatever the OS
    gives, which is no worse than before.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _durable_replace(path: Path, text: str) -> None:
    """Atomically and durably replace ``path``'s content with ``text``.

    temp-write → flush → fsync(file) → ``os.replace`` → fsync(dir),
    retried up to :data:`_WRITE_ATTEMPTS` times on transient
    ``OSError`` with a short backoff. Raises
    :class:`~repro.errors.ExperimentError` when the filesystem keeps
    failing.
    """
    tmp = path.with_name(path.name + ".tmp")
    last_error: OSError | None = None
    for attempt in range(_WRITE_ATTEMPTS):
        try:
            spec = faults.fire("fs.error", op="replace")
            if spec is not None:
                raise OSError("injected transient filesystem error")
            with open(tmp, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_directory(path.parent)
            return
        except OSError as exc:
            last_error = exc
            obs.emit(
                "checkpoint.retry",
                attempt=attempt,
                error=type(exc).__name__,
                path=str(path),
            )
            if attempt < _WRITE_ATTEMPTS - 1:
                time.sleep(0.01 * 2**attempt)
    raise ExperimentError(
        f"cannot write {path} after {_WRITE_ATTEMPTS} attempts: {last_error}"
    ) from last_error


def save_sweep(result: SweepResult, path: str | Path) -> None:
    """Write a sweep result to a JSON file (durable atomic write)."""
    _durable_replace(
        Path(path), json.dumps(sweep_to_dict(result), indent=2)
    )


def load_sweep(path: str | Path) -> SweepResult:
    """Read a sweep result from a JSON file."""
    path = Path(path)
    if not path.exists():
        raise ExperimentError(f"sweep file not found: {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"invalid sweep JSON: {exc}") from exc
    return sweep_from_dict(payload)


def merge_sweeps(a: SweepResult, b: SweepResult) -> SweepResult:
    """Pool two runs of the same experiment into one larger sample.

    The runs must share the experiment definition (name, sweep points
    and their generation parameters, protocols, LS policy, method) but
    should use different seeds — the merged ratios are the
    sample-size-weighted averages.
    """
    ca, cb = a.config, b.config
    if (
        ca.name != cb.name
        or ca.x_label != cb.x_label
        or ca.points != cb.points
        or ca.protocols != cb.protocols
        or ca.ls_policy != cb.ls_policy
        or ca.method != cb.method
    ):
        raise ExperimentError("cannot merge results of different experiments")
    if ca.seed == cb.seed:
        raise ExperimentError(
            "refusing to merge runs with the same seed: the samples are "
            "identical, not independent"
        )
    merged_points = []
    for pa, pb in zip(a.points, b.points):
        total = pa.sets_evaluated + pb.sets_evaluated
        merged_points.append(
            PointResult(
                x=pa.x,
                ratios={
                    protocol: (
                        pa.ratios[protocol] * pa.sets_evaluated
                        + pb.ratios[protocol] * pb.sets_evaluated
                    )
                    / total
                    for protocol in ca.protocols
                },
                sets_evaluated=total,
                elapsed_seconds=pa.elapsed_seconds + pb.elapsed_seconds,
                failures=pa.failures + pb.failures,
                analysis_stats={
                    name: pa.analysis_stats.get(name, 0)
                    + pb.analysis_stats.get(name, 0)
                    for name in {*pa.analysis_stats, *pb.analysis_stats}
                },
            )
        )
    merged_config = dataclasses.replace(
        ca, sets_per_point=ca.sets_per_point + cb.sets_per_point
    )
    return SweepResult(config=merged_config, points=tuple(merged_points))


def config_digest(config: ExperimentConfig) -> str:
    """Stable digest identifying an experiment configuration.

    Two configs with the same digest generate the same task sets and
    evaluate the same protocols; traces carry it (truncated) as their
    run id.
    """
    canonical = json.dumps(_config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
