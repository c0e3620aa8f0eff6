"""CLI chaos surface: ``figure --inject`` and one-line profile errors."""

import json

import pytest

from repro.cli import main
from repro.faults import FaultPlan, FaultSpec, save_plan


class TestFigureInject:
    def test_injected_run_matches_clean_run(self, capsys, tmp_path):
        clean_csv = tmp_path / "clean.csv"
        assert main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--csv", str(clean_csv)]
        ) == 0
        capsys.readouterr()
        plan_path = tmp_path / "plan.json"
        save_plan(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="worker.death", mode="exit", point=0, unit=0,
                        attempt=0,
                    ),
                ),
                name="cli-chaos",
            ),
            plan_path,
        )
        injected_csv = tmp_path / "injected.csv"
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--jobs", "2", "--inject", str(plan_path),
             "--csv", str(injected_csv), "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "injecting faults from" in out
        assert "cli-chaos" in out
        # The acceptance contract: an injected parallel run produces the
        # same series as the fault-free run (modulo the wall-clock
        # column, which is a measurement, not a result)...
        def series(path):
            return [
                line.rsplit(",", 1)[0]
                for line in path.read_text().splitlines()
            ]

        assert series(injected_csv) == series(clean_csv)
        # ...and every injection is visible as a fault.* trace event.
        from repro.obs import read_trace, validate_event

        deaths = [
            e
            for e in read_trace(trace)
            if e["name"] == "fault.worker.death"
        ]
        assert len(deaths) == 1
        assert validate_event(deaths[0]) == []
        assert deaths[0]["f"]["plan"] == "cli-chaos"

    def test_missing_plan_is_one_line_error(self, capsys, tmp_path):
        code = main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--inject", str(tmp_path / "nope.json")]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error: fault plan not found" in captured.err
        assert "Traceback" not in captured.err

    def test_invalid_plan_is_one_line_error(self, capsys, tmp_path):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text("{nope")
        code = main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--inject", str(plan_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error: invalid fault plan JSON" in captured.err

    def test_unknown_site_is_one_line_error(self, capsys, tmp_path):
        plan_path = tmp_path / "bad.json"
        plan_path.write_text(json.dumps({"specs": [{"site": "warp.core"}]}))
        code = main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--inject", str(plan_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error: unknown fault site" in captured.err


class TestFigureInjectSolverFault:
    """``--inject`` with a ``solver.fault`` plan under default options:
    the site fires once per unit that solves a MILP, HiGHS's option
    ladder absorbs the crash, and the run matches the clean run."""

    @staticmethod
    def _run(tmp_path, tag, jobs, plan_path=None):
        from repro.obs import read_trace

        csv, trace = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.jsonl"
        args = ["figure", "fig2e", "--sets", "1", "--method", "milp",
                "--jobs", jobs, "--csv", str(csv), "--trace", str(trace)]
        if plan_path is not None:
            args += ["--inject", str(plan_path)]
        assert main(args) == 0
        events = read_trace(trace)
        # Ratios (the series less its wall-clock column), then each
        # point's ledger size and analysis_stats; points may finish out
        # of order under --jobs 2.
        series = [line.rsplit(",", 1)[0] for line in csv.read_text().splitlines()]
        ends = sorted(
            (e["f"]["x"], e["f"]["failures"], e["f"]["stats"])
            for e in events
            if e["name"] == "point.end"
        )
        return series, ends, events

    @staticmethod
    def _units(events, name):
        return [(e["point"], e["unit"]) for e in events if e["name"] == name]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_solver_fault_fires_and_changes_nothing(
        self, capsys, tmp_path, jobs
    ):
        series, ends, clean_events = self._run(tmp_path, "clean", "1")
        plan_path = tmp_path / "plan.json"
        save_plan(
            FaultPlan(
                specs=(FaultSpec(site="solver.fault", mode="crash"),),
                name="solver-crash",
            ),
            plan_path,
        )
        injected = self._run(tmp_path, "injected", jobs, plan_path)
        capsys.readouterr()
        assert injected[:2] == (series, ends)
        solved = set(self._units(clean_events, "highs.solve"))
        fired = self._units(injected[2], "fault.solver.fault")
        assert solved
        assert sorted(fired) == sorted(solved)


class TestProfileErrors:
    """``repro profile`` answers bad inputs with one line, not a
    traceback (satellite: it used to dump KeyError/JSONDecodeError)."""

    @pytest.mark.parametrize(
        "make_path, expected",
        [
            (lambda d: d / "missing.jsonl", "trace file not found"),
            (lambda d: d, "cannot read trace"),  # a directory
        ],
        ids=["missing", "directory"],
    )
    def test_unreadable_paths(self, capsys, tmp_path, make_path, expected):
        code = main(["profile", str(make_path(tmp_path))])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err
        assert expected in captured.err
        assert "Traceback" not in captured.err

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        code = main(["profile", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "contains no valid events" in captured.err
        assert "empty or not a JSONL trace" in captured.err

    def test_non_jsonl_file(self, capsys, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("this is not\na trace file\n")
        code = main(["profile", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "contains no valid events" in captured.err
        assert "2 corrupt line(s) skipped" in captured.err

    def test_partially_corrupt_trace_still_profiles(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--trace", str(trace)]
        ) == 0
        with open(trace, "a") as handle:
            handle.write("{torn line\n")
        capsys.readouterr()
        code = main(["profile", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace corruption" in out
        assert "bad_json" in out

    def test_corrupt_trace_reconciles_with_note(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--trace", str(trace)]
        ) == 0
        # Corrupt one cache event line: the counters now under-report,
        # but the reader can prove corruption, so this is a note — not
        # a reconciliation failure.
        lines = trace.read_text().splitlines()
        index = next(i for i, line in enumerate(lines) if '"cache.' in line)
        lines[index] = lines[index][: len(lines[index]) // 2]
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["profile", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "corrupt trace line(s) skipped" in out
        assert "reconciliation gap (corrupt trace)" in out
        assert "MISMATCH" not in out
