"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, load_taskset_csv, main
from repro.errors import ReproError

CSV = """name,C,l,u,T,D
a,1.0,0.2,0.2,10.0,9.0
b,2.0,0.3,0.3,20.0,18.0
"""

BAD_CSV = """task,wcet
a,1.0
"""


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "ts.csv"
    path.write_text(CSV)
    return str(path)


class TestLoadCsv:
    def test_loads_and_prioritizes(self, csv_file):
        ts = load_taskset_csv(csv_file)
        assert len(ts) == 2
        assert ts.by_name("a").priority < ts.by_name("b").priority

    def test_rejects_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(BAD_CSV)
        with pytest.raises(ReproError):
            load_taskset_csv(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_defaults(self, csv_file):
        args = build_parser().parse_args(["analyze", csv_file])
        assert args.protocol == "proposed"
        assert args.method == "milp"

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig9z"])


class TestCommands:
    def test_analyze_schedulable_exit_zero(self, csv_file, capsys):
        code = main(["analyze", csv_file, "--protocol", "nps"])
        out = capsys.readouterr().out
        assert code == 0
        assert "schedulable: True" in out

    def test_analyze_proposed_greedy(self, csv_file, capsys):
        code = main(["analyze", csv_file])
        assert code == 0
        assert "WCRT" in capsys.readouterr().out

    def test_analyze_unschedulable_exit_one(self, tmp_path, capsys):
        path = tmp_path / "tight.csv"
        path.write_text(
            "name,C,l,u,T,D\n"
            "tight,1.0,0.1,0.1,10.0,1.05\n"
            "heavy,8.0,0.8,0.8,20.0,20.0\n"
        )
        code = main(["analyze", str(path), "--protocol", "nps"])
        assert code == 1

    def test_simulate_synchronous(self, csv_file, capsys):
        code = main(
            ["simulate", csv_file, "--protocol", "wasly", "--horizon", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CPU |" in out
        assert "deadline misses: 0" in out

    def test_simulate_with_ls_marks(self, csv_file, capsys):
        code = main(
            ["simulate", csv_file, "--protocol", "proposed", "--ls", "a",
             "--horizon", "60"]
        )
        assert code == 0

    def test_simulate_sporadic_pattern(self, csv_file):
        code = main(
            ["simulate", csv_file, "--pattern", "sporadic", "--seed", "3",
             "--horizon", "80"]
        )
        assert code == 0

    def test_figure_tiny_run(self, capsys, tmp_path):
        csv_out = tmp_path / "series.csv"
        code = main(
            ["figure", "fig2e", "--sets", "2", "--method", "closed_form",
             "--csv", str(csv_out)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "schedulability ratio" in out
        assert csv_out.exists()

    def test_figure_checkpoint_and_resume(self, capsys, tmp_path):
        # The store is the checkpoint: rerunning on it resumes, and the
        # removed checkpoint flags are rejected outright.
        store = tmp_path / "store.sqlite"
        base = ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
                "--cache", str(store)]
        assert main(base) == 0
        assert store.exists()
        capsys.readouterr()
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "schedulability ratio" in out
        for flag in (["--checkpoint", "ck.json"], ["--resume"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(base + flag)

    def test_figure_failure_policy_flag(self, capsys):
        code = main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--failure-policy", "skip"]
        )
        assert code == 0

    def test_figure_rejects_unknown_failure_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["figure", "fig2e", "--failure-policy", "explode"]
            )

    def test_figure_trace_and_profile_reconcile(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--trace", str(trace)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trace written to" in out
        assert trace.exists()
        code = main(["profile", str(trace)])
        out = capsys.readouterr().out
        assert code == 0
        assert "work events" in out
        assert "reconciles" in out

    def test_profile_reports_mismatch(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--trace", str(trace)]
        ) == 0
        # Drop the cache events: the counters can no longer reconcile.
        kept = [
            line
            for line in trace.read_text().splitlines()
            if '"cache.' not in line
        ]
        trace.write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        code = main(["profile", str(trace)])
        out = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in out

    def test_profile_no_timings_is_deterministic_form(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["profile", str(trace), "--no-timings"]) == 0
        out = capsys.readouterr().out
        assert "work events" in out
        assert "timings" not in out

    def test_profile_missing_trace_errors(self, capsys):
        code = main(["profile", "/nonexistent/trace.jsonl"])
        assert code in (1, 2)

    def test_cache_stats_gc_clear_roundtrip(self, capsys, tmp_path):
        from repro.analysis.store import PersistentStore

        db = tmp_path / "cache.sqlite"
        store = PersistentStore(db)
        for i in range(6):
            store.store(
                f"digest-{i}",
                ("unit", {"verdicts": {"nps": [i % 2, 1]}, "failures": []}),
            )
        store.close()

        assert main(["cache", "stats", str(db)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "schema_version" in out

        assert main(["cache", "gc", str(db), "--keep", "2"]) == 0
        assert "removed 4" in capsys.readouterr().out

        assert main(["cache", "clear", str(db)]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_cache_missing_database_errors(self, capsys, tmp_path):
        missing = tmp_path / "nope.sqlite"
        assert main(["cache", "stats", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err
        # gc/clear must not create an empty store at a typo'd path.
        assert main(["cache", "gc", str(missing)]) == 2
        capsys.readouterr()
        assert not missing.exists()

    @pytest.mark.parametrize("action", ["stats", "gc", "clear"])
    def test_cache_on_a_non_sqlite_file_is_one_line_error(
        self, capsys, tmp_path, action
    ):
        bogus = tmp_path / "notes.sqlite"
        bogus.write_text("hello\n")
        assert main(["cache", action, str(bogus)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bogus) in err
        assert "Traceback" not in err
        # The user's file is neither overwritten nor deleted.
        assert bogus.read_text() == "hello\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["notes.sqlite"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_figure_cache_on_a_non_sqlite_file_is_one_line_error(
        self, capsys, tmp_path, jobs
    ):
        bogus = tmp_path / "notes.sqlite"
        bogus.write_text("hello\n")
        code = main(
            ["figure", "fig2e", "--sets", "1", "--method", "closed_form",
             "--jobs", jobs, "--cache", str(bogus)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(bogus) in err
        assert "Traceback" not in err
        assert bogus.read_text() == "hello\n"

    def test_demo_runs(self, capsys):
        code = main(["demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MISSES" in out

    def test_missing_file_reports_error(self, capsys):
        code = main(["analyze", "/nonexistent/file.csv"])
        assert code == 2 or code == 1  # ReproError or OS error path

    def test_sensitivity_command(self, csv_file, capsys):
        code = main(
            ["sensitivity", csv_file, "--protocol", "nps",
             "--tolerance", "0.1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "critical factor" in out

    def test_metrics_command(self, csv_file, capsys):
        code = main(
            ["metrics", csv_file, "--protocol", "wasly",
             "--horizon", "200"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "CPU busy" in out

    def test_witness_command(self, csv_file, capsys):
        code = main(["witness", csv_file, "b"])
        out = capsys.readouterr().out
        assert code == 0
        assert "worst-case window for b" in out

    def test_witness_with_ls_mark(self, csv_file, capsys):
        code = main(["witness", csv_file, "a", "--ls", "a"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=ls_a" in out
