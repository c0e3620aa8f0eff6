"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_fig2a --seed 2020 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
runs the workload untraced and then traced, and prints the per-layer
metrics. Human-readable tables go to standard output first; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every verdict and counter
check passed.

``--write-manifest`` regenerates ``BENCHMARK.json`` from
``perfbench/catalog.py``; ``--record-reference`` re-records the
cold_fig2a verdict reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

IMPORT_PROBE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import repro.experiments, repro.service, repro.analysis.store"
)


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    from perfbench.catalog import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.write_manifest or args.record_reference):
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_in_fresh_interpreter() -> None:
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True)


def _closed_loop(workload, seconds: float, problems: list[str]):
    """Requests back to back until ``seconds`` of timed work; checks each."""
    from perfbench import gate

    windows, sweeps, counts = [], [], []
    for index in range(workload.warmup):
        problems.extend(workload.check(workload.request(-1 - index)[2]))
    busy = 0.0
    while busy < seconds or not windows:
        start, end, sweep = workload.request(len(windows))
        windows.append((start, end))
        busy += end - start
        problems.extend(workload.check(sweep))
        counts.append(gate.counts(sweep))
        sweeps.append(sweep)
    problems.extend(gate.check_counts_repeat(counts))
    return windows, sweeps, counts[0]


def _source_digest() -> str:
    from perfbench import gate

    files = list(SRC.rglob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    return gate.source_digest(files)


def _measure(args: argparse.Namespace, workload, work: Path, problems: list[str]) -> dict:
    """Set up, time the closed loop, and (traced) time it again under spans."""
    from perfbench import tracer

    measured: dict = {"setup": []}
    try:
        workload.prepare()
        for index in range(1 if args.trace else SETUPS):
            if index:
                workload.teardown()
            start = time.perf_counter()
            _import_in_fresh_interpreter()
            workload.setup()
            measured["setup"].append(time.perf_counter() - start)
        measured["untraced"] = _closed_loop(workload, args.seconds, problems)
        workload.teardown()
        if args.trace:
            recorder = tracer.Recorder(work / "spans")
            uninstall = tracer.install(recorder)
            try:
                workload.setup()
                measured["traced"] = _closed_loop(workload, args.seconds, problems)
                workload.teardown()
            finally:
                uninstall()
            measured["spans"] = recorder.collect()
    finally:
        workload.teardown()
    return measured


def _end_to_end(measured: dict, out) -> dict[str, float]:
    from perfbench import gate, stats

    windows, sweeps, _ = measured["untraced"]
    durations = [end - start for start, end in windows]
    setups = measured["setup"]
    metrics = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": statistics.median(
            [(gate.attempted_pairs(s) - gate.failed_pairs(s)) / d
             for s, d in zip(sweeps, durations)]
        ),
        "request_p50_s": stats.percentile(durations, 50.0),
        "request_p90_s": stats.percentile(durations, 90.0),
        "peak_rss_mb": stats.peak_rss_mb(),
    }
    n = f"n={len(durations)}"
    notes = {
        "setup_s": f"median of {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups),
        "verdicts_per_s": f"median over requests, {n}",
        "request_p50_s": n,
        "request_p90_s": n + ("" if len(durations) >= 100 else ", fewer than 100: not a tail"),
        "peak_rss_mb": "this process plus its largest child",
    }
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g}  {notes[name]}", file=out)
    tail = stats.tail_percentile(len(durations))
    if tail is not None:
        value = stats.percentile(durations, tail)
        print(f"  {'request tail':<32} {value:>14.6g}  p{tail:g} of {n}", file=out)
    return metrics


def _per_layer(measured: dict, jobs: int, out) -> dict[str, float]:
    from perfbench import catalog, tracer

    untraced = [end - start for start, end in measured["untraced"][0]]
    windows, _, counts = measured["traced"]
    traced = [end - start for start, end in windows]
    metrics = tracer.layer_metrics(measured["spans"], windows, jobs)
    metrics.update(counts)
    screens = counts["count.closed_form_screens"] + counts["count.lp_screens"]
    metrics["screen.yield"] = counts["count.screened_out"] / screens if screens else 0.0
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    wall = sum(traced)
    print(f"  traced requests {len(traced)}, traced wall {wall:.3f} s", file=out)
    for name, unit in catalog.PER_LAYER:
        share = f"  {100.0 * metrics[name] / wall:6.1f}% of wall" if unit == "s" else ""
        print(f"  {name:<32} {metrics[name]:>14.6g} {unit:<6}{share}", file=out)
    return metrics


def run(args: argparse.Namespace, out) -> int:
    from perfbench import catalog, gate
    from perfbench.workloads import WORKLOADS

    build = ROOT / ".bench_build" / "perfbench"
    work = build / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Keep every temporary file of the program (pool marker directories
    # included) inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    workload = WORKLOADS[args.workload](work, args.seed)
    problems: list[str] = []
    measured = _measure(args, workload, work, problems)

    phases = [measured["untraced"]] + ([measured["traced"]] if args.trace else [])
    counts = measured["untraced"][2]
    if args.trace and measured["traced"][2] != counts:
        problems.append(f"traced counters {measured['traced'][2]} != untraced {counts}")
    problems.extend(
        gate.check_counts_recorded(
            build / "counts" / f"{workload.name}-{args.seed}.json", _source_digest(), counts
        )
    )
    attempted = sum(gate.attempted_pairs(s) for _, sweeps, _ in phases for s in sweeps)
    failed = sum(gate.failed_pairs(s) for _, sweeps, _ in phases for s in sweeps)

    print(
        f"# perfbench {workload.name}  seed={args.seed}  seconds={args.seconds:g}  "
        f"trace={args.trace}  cpu_count={os.cpu_count()}  jobs={workload.jobs}",
        file=out,
    )
    for key, value in workload.notes.items():
        print(f"  {key:<32} {value}", file=out)
    if args.trace:
        metrics = _per_layer(measured, workload.jobs, out)
        units = dict(catalog.PER_LAYER)
    else:
        metrics = _end_to_end(measured, out)
        units = {name: unit for name, unit, _, _ in catalog.END_TO_END}
        for name, value in counts.items():
            print(f"  {name:<32} {value:>14d}", file=out)
    print(f"  {'error_rate':<32} {failed / attempted:>14.6g}  "
          f"{failed} of {attempted} (task set, protocol) pairs failed", file=out)
    for problem in problems:
        print(f"  MISMATCH {problem}", file=out)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), file=out, flush=True)
    return 0 if not problems else 1


def main(argv: "list[str] | None" = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = _parse(argv)
    if args.write_manifest:
        from perfbench.catalog import manifest

        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n", encoding="utf-8"
        )
        return 0
    if args.record_reference:
        from perfbench.gate import config_key, verdict_table
        from perfbench.workloads import REFERENCE, cold_config

        from repro.experiments import run_experiment

        config = cold_config()
        table = {"config": config_key(config), **verdict_table(run_experiment(config, jobs=1))}
        REFERENCE.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        return 0
    # The program's solver writes progress straight to file descriptor 1;
    # point fd 1 at stderr so stdout carries only the benchmark's lines.
    sys.stdout.flush()
    out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    try:
        return run(args, out)
    finally:
        shutil.rmtree(ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}",
                      ignore_errors=True)
        out.close()


if __name__ == "__main__":
    sys.exit(main())
