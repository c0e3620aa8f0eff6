"""Tests of the benchmark harness itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import copy
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import catalog, gate, stats, tracer  # noqa: E402
from perfbench.workloads import REFERENCE  # noqa: E402


# -- percentiles --------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(99) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(10, 0, -1)]
    assert stats.percentile(samples, 50.0) == 5.0
    assert stats.percentile(samples, 90.0) == 9.0
    assert stats.percentile(samples, 100.0) == 10.0
    assert stats.percentile([0.25], 90.0) == 0.25


# -- spans ---------------------------------------------------------------
def _span(name, start, end, sid, parent=None, info=None):
    return [name, start, end, 1, 1, sid, parent, info]


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        _span("analysis", 0.0, 10.0, "a"),
        _span("milp.lp", 1.0, 3.0, "b", "a"),
        _span("milp.solve", 2.0, 5.0, "c", "a"),  # overlaps b
        _span("cache.get", 7.0, 8.0, "d", "a"),
        _span("milp.compile", 1.5, 2.0, "e", "b"),  # grandchild of a
    ]
    own = tracer.self_times(spans)
    assert own["a"] == 10.0 - 4.0 - 1.0
    assert own["b"] == 2.0 - 0.5
    assert own["e"] == 0.5


def test_recorder_nests_wrapped_calls_and_counts_reentry_once(tmp_path):
    recorder = tracer.Recorder(tmp_path)

    def inner(depth):
        return inner_wrapped(depth - 1) if depth else 0

    inner_wrapped = tracer._wrap(recorder, "milp.lp", inner)
    outer = tracer._wrap(recorder, "analysis", lambda: inner_wrapped(2) + inner_wrapped(0))
    outer()
    spans = recorder.collect()
    by_name = {}
    for span in spans:
        by_name.setdefault(span[tracer.NAME], []).append(span)
    (root,) = by_name["analysis"]
    assert len(by_name["milp.lp"]) == 4
    top = [s for s in tracer.outermost(spans) if s[tracer.NAME] == "milp.lp"]
    assert len(top) == 2
    assert all(s[tracer.PARENT] == root[tracer.SID] for s in top)
    metrics = tracer.layer_metrics(spans, [(root[tracer.START], root[tracer.END])], jobs=1)
    assert metrics["milp.lp.calls"] == 2
    assert metrics["analysis.verdicts"] == 1
    assert metrics["trace.residual_s"] == 0.0


# -- store snapshots -----------------------------------------------------
def test_snapshot_keeps_rows_still_in_the_write_ahead_log(tmp_path):
    from repro.analysis.store import PersistentStore

    source = PersistentStore(tmp_path / "source.db")
    for index in range(200):
        source.store(f"digest-{index:04d}", ("milp", float(index), 3, {}, None))
    # The source connection stays open: its rows may still sit in the WAL.
    assert gate.snapshot(tmp_path / "source.db", tmp_path / "copy.db") == 200
    copy_store = PersistentStore(tmp_path / "copy.db")
    try:
        assert len(copy_store) == 200
        assert copy_store.fetch("digest-0199") == (("milp", 199.0, 3, {}, None), False)
    finally:
        copy_store.close()
        source.close()


# -- verdict gate ------------------------------------------------------
def test_verdict_gate_catches_a_flipped_verdict():
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert gate.compare_tables(reference, copy.deepcopy(reference), "cold") == []
    flipped = copy.deepcopy(reference)
    point = flipped["points"][1]
    point["ratios"]["wasly"] = 0.75 if point["ratios"]["wasly"] != 0.75 else 0.5
    problems = gate.compare_tables(reference, flipped, "cold")
    assert len(problems) == 1 and "wasly" in problems[0]
    failed = copy.deepcopy(reference)
    failed["points"][0]["failures"].append(["proposed", 2, "SolverError"])
    assert len(gate.compare_tables(reference, failed, "cold")) == 1


def test_counter_record_rejects_a_second_run_that_disagrees(tmp_path):
    path = tmp_path / "counts.json"
    sample = {"count.milp_solves": 55}
    assert gate.check_counts_recorded(path, "rev-a", sample) == []
    assert gate.check_counts_recorded(path, "rev-a", sample) == []
    assert gate.check_counts_recorded(path, "rev-a", {"count.milp_solves": 54})
    assert gate.check_counts_recorded(path, "rev-b", {"count.milp_solves": 54}) == []
    assert gate.check_counts_repeat([sample, sample, {"count.milp_solves": 1}])


# -- manifest and command ------------------------------------------------
def test_benchmark_json_matches_the_catalog():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert on_disk == catalog.manifest()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    names += [w["name"] for w in on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in on_disk["end_to_end"])
    assert max(on_disk["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_command_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_fig2a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_window_arithmetic_matches_a_brute_force_union():
    rng = random.Random(1)
    windows, clock = [], 0.0
    for _ in range(40):
        clock += rng.random()
        start = clock
        clock += rng.random()
        windows.append((start, clock))
    spans = []
    for index in range(2000):
        start = rng.random() * clock
        spans.append(_span("x", start, start + rng.random() * 0.5, str(index)))
    kept = tracer.in_windows(spans, windows)
    assert kept == [s for s in spans if any(lo <= s[1] <= hi for lo, hi in windows)]
    intervals = [(s[1], s[2]) for s in kept]
    brute = sum((hi - lo) - tracer.covered(intervals, lo, hi) for lo, hi in windows)
    assert abs(tracer.residual(kept, windows) - brute) < 1e-9
