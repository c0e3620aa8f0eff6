"""k-protocol sweeps through every execution path, keyed stores, reports.

The sweep stack used to assume exactly ``("nps_carry", "wasly",
"proposed")``; these tests pin the k-protocol generalisation: a
five-protocol sweep is bit-identical across ``jobs=1``, ``jobs=N`` and
the socket service, persistent-store unit rows are keyed by the
protocol-specific options but not by the protocol tuple (a row holds
each protocol's verdict separately, so a sweep extended with more
protocols evaluates only those),
reports pick an explicit baseline instead of hard-coding "proposed",
and the CLI/service layers reject or re-normalise zoo options at the
boundary.
"""

import dataclasses
import json
from xml.dom import minidom

import pytest

from repro.analysis.interface import AnalysisOptions, RegulationConfig
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    SweepPoint,
    SweepResult,
    ascii_plot,
    figure2_config,
    render_sweep_table,
    run_experiment,
    sweep_to_csv,
)
from repro.experiments.figures import save_sweep_svg, sweep_to_svg
from repro.experiments.report import baseline_protocol
from repro.experiments.units import unit_digest
from repro.generator.taskset_gen import GenerationConfig
from repro.service.worker import options_from_dict, options_to_dict

ZOO = ("nps_carry", "wasly", "proposed", "threshold", "regulated")


def _zoo_config(protocols=ZOO, sets=2):
    points = tuple(
        SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
        for u in (0.3, 0.5)
    )
    return ExperimentConfig(
        name="zoo",
        x_label="U",
        points=points,
        sets_per_point=sets,
        seed=17,
        method="closed_form",
        protocols=protocols,
    )


def _identical(a: SweepResult, b: SweepResult) -> None:
    assert [p.x for p in a.points] == [p.x for p in b.points]
    for pa, pb in zip(a.points, b.points):
        assert pa.ratios == pb.ratios
        assert pa.failures == pb.failures
        assert pa.sets_evaluated == pb.sets_evaluated
        assert dict(pa.analysis_stats) == dict(pb.analysis_stats)


class TestKProtocolSweep:
    def test_config_carries_five_protocols(self):
        cfg = figure2_config("fig2a", protocols=ZOO)
        assert cfg.protocols == ZOO

    def test_unknown_protocol_rejected_with_registry_listing(self):
        with pytest.raises(ExperimentError) as err:
            figure2_config("fig2a", protocols=("foo",))
        message = str(err.value)
        assert "unknown protocol(s) 'foo'" in message
        assert "registered protocols:" in message

    def test_empty_protocol_tuple_rejected(self):
        with pytest.raises(ExperimentError, match="empty protocol"):
            figure2_config("fig2a", protocols=())

    def test_five_protocol_ratios_cover_every_protocol(self):
        result = run_experiment(_zoo_config())
        for point in result.points:
            assert set(point.ratios) == set(ZOO)
            for ratio in point.ratios.values():
                assert 0.0 <= ratio <= 1.0

    def test_bit_identity_jobs_1_vs_n(self):
        config = _zoo_config()
        _identical(run_experiment(config), run_experiment(config, jobs=2))

    def test_bit_identity_service_path(self):
        from repro.service import run_service_sweep

        config = _zoo_config()
        sequential = run_experiment(config)
        service = run_service_sweep(config, workers=2)
        _identical(sequential, service)


class TestStoreKeying:
    """One unit row per task set, holding each protocol's verdict."""

    def test_unit_digest_ignores_protocol_tuple(self):
        base = _zoo_config(protocols=("nps_carry", "threshold"))
        other = dataclasses.replace(
            base, protocols=("nps_carry", "regulated")
        )
        assert unit_digest(base, 0, 0, None, "count_unschedulable") == \
            unit_digest(other, 0, 0, None, "count_unschedulable")

    def test_unit_digest_covers_zoo_options(self):
        config = _zoo_config()
        plain = AnalysisOptions()
        thetas = AnalysisOptions(preemption_thresholds=(("t0", 0),))
        throttled = AnalysisOptions(
            regulation=RegulationConfig(budget=0.5, period=1.0)
        )
        digests = [
            unit_digest(config, 0, 0, opts, "count_unschedulable")
            for opts in (plain, thetas, throttled)
        ]
        assert len(set(digests)) == 3
        # None means "the defaults" (pinned by the service tests), so
        # it must collide with explicit default options — and only them.
        assert unit_digest(
            config, 0, 0, None, "count_unschedulable"
        ) == digests[0]

    def test_warm_store_serves_same_protocols_only(self, tmp_path):
        from repro.service import run_service_sweep

        cache = tmp_path / "store.sqlite"
        threshold_cfg = _zoo_config(protocols=("nps_carry", "threshold"))
        regulated_cfg = _zoo_config(protocols=("nps_carry", "regulated"))
        cold = run_service_sweep(
            threshold_cfg, workers=2, cache_path=str(cache),
        )
        # Same protocols again: every unit comes from the store.
        warm = run_service_sweep(
            threshold_cfg, workers=2, cache_path=str(cache),
        )
        assert [p.ratios for p in warm.points] == [
            p.ratios for p in cold.points
        ]
        assert [p.failures for p in warm.points] == [
            p.failures for p in cold.points
        ]
        for point in warm.points:
            stats = dict(point.analysis_stats)
            assert stats["unit_store.hits"] == threshold_cfg.sets_per_point
        # A different protocol tuple is served only the protocols the
        # rows hold (nps_carry) — each unit counts one hit — evaluates
        # regulated, and still produces the sequential truth.
        crossed = run_service_sweep(
            regulated_cfg, workers=2, cache_path=str(cache),
        )
        for point in crossed.points:
            stats = dict(point.analysis_stats)
            assert stats["unit_store.hits"] == regulated_cfg.sets_per_point
        sequential = run_experiment(regulated_cfg)
        assert [p.ratios for p in crossed.points] == [
            p.ratios for p in sequential.points
        ]
        assert [p.failures for p in crossed.points] == [
            p.failures for p in sequential.points
        ]

    def test_changed_regulation_misses_the_store(self, tmp_path):
        from repro.service import run_service_sweep

        cache = tmp_path / "store.sqlite"
        config = _zoo_config(protocols=("nps_carry", "regulated"))
        tight = AnalysisOptions(
            regulation=RegulationConfig(budget=0.5, period=1.0)
        )
        loose = AnalysisOptions(
            regulation=RegulationConfig(budget=0.9, period=1.0)
        )
        run_service_sweep(
            config, workers=2, options=tight, cache_path=str(cache),
        )
        reran = run_service_sweep(
            config, workers=2, options=loose, cache_path=str(cache),
        )
        for point in reran.points:
            assert dict(point.analysis_stats).get("unit_store.hits", 0) == 0


class TestAddingProtocols:
    """Extending a warm sweep evaluates only the protocols it lacks.

    Rows hold each protocol's verdict, so a sweep extended from the
    stored protocols to five re-analyses none of the stored ones — on
    every driver — and its merged ledgers come out in the extended
    config's protocol order, as a full evaluation lists them.
    """

    STORED = ("nps_carry", "proposed", "wasly")
    EXTENDED = ("threshold", "nps_carry", "proposed", "regulated", "wasly")

    @pytest.fixture
    def calls(self, tmp_path, monkeypatch):
        """Count ``is_schedulable`` calls per protocol, workers included.

        Workers are forked after the patch, so they log too; the log is
        a file because their counts must cross the process boundary.
        ``threshold`` always fails, so stored (``proposed`` under the
        bogus LS policy) and fresh failures interleave in the ledgers.
        """
        import collections

        import repro.experiments.units as units_module
        from repro.errors import SolverError

        log = tmp_path / "calls.log"
        original = units_module.is_schedulable

        def logged(taskset, protocol, **kwargs):
            with open(log, "a") as handle:
                handle.write(protocol + "\n")
            if protocol == "threshold":
                raise SolverError("injected threshold failure")
            return original(taskset, protocol, **kwargs)

        monkeypatch.setattr(units_module, "is_schedulable", logged)

        def take():
            text = log.read_text() if log.exists() else ""
            log.unlink(missing_ok=True)
            return collections.Counter(text.split())

        return take

    @staticmethod
    def _run(driver, config, cache):
        from repro.service import run_service_sweep

        if driver == "service":
            return run_service_sweep(config, workers=2, cache_path=cache)
        return run_experiment(config, jobs=driver, cache_path=cache)

    def test_only_new_protocols_are_evaluated(self, tmp_path, calls):
        stored = dataclasses.replace(
            _zoo_config(protocols=self.STORED), ls_policy="bogus"
        )
        extended = dataclasses.replace(stored, protocols=self.EXTENDED)
        units = len(stored.points) * stored.sets_per_point
        reference = run_experiment(extended)
        assert {f.protocol for f in reference.failures} == {
            "threshold", "proposed"
        }
        calls()
        runs = {}
        for driver in (1, 2, "service"):
            cache = str(tmp_path / f"store-{driver}.sqlite")
            cold = self._run(driver, stored, cache)
            assert calls() == {p: units for p in self.STORED}
            warm = self._run(driver, stored, cache)
            assert calls() == {}
            grown = self._run(driver, extended, cache)
            assert calls() == {"threshold": units, "regulated": units}
            full = self._run(driver, extended, cache)
            assert calls() == {}
            for result in (grown, full):
                assert [p.ratios for p in result.points] == [
                    p.ratios for p in reference.points
                ]
                assert result.failures == reference.failures
            for point in grown.points:
                assert point.analysis_stats["unit_store.hits"] == (
                    stored.sets_per_point
                )
            for point in warm.points + full.points:
                stats = dict(point.analysis_stats)
                assert stats.pop("unit_store.hits") == stored.sets_per_point
                assert not any(stats.values())
            runs[driver] = (cold, warm, grown, full)
        # Bit-identical across drivers on cold, warm and grown stores
        # (``_identical`` compares analysis_stats too).
        for driver in (2, "service"):
            for mine, sequential in zip(runs[driver], runs[1]):
                _identical(mine, sequential)


class TestReportsAndFigures:
    def test_baseline_protocol_prefers_proposed(self):
        assert baseline_protocol(ZOO) == "proposed"
        assert baseline_protocol(("threshold", "regulated")) == "regulated"
        with pytest.raises(ValueError):
            baseline_protocol(())

    def test_table_advantage_lines_pair_against_one_baseline(self):
        result = run_experiment(_zoo_config())
        table = render_sweep_table(result)
        for protocol in ZOO:
            if protocol == "proposed":
                continue
            assert f"max advantage of proposed over {protocol}:" in table
        assert "advantage of proposed over proposed" not in table

    def test_table_without_proposed_does_not_crash(self):
        # The pre-zoo report unconditionally indexed "proposed".
        result = run_experiment(
            _zoo_config(protocols=("nps_carry", "threshold", "regulated"))
        )
        table = render_sweep_table(result)
        assert "max advantage of regulated over nps_carry:" in table
        assert "max advantage of regulated over threshold:" in table
        assert "proposed" not in table

    def test_explicit_baseline_override(self):
        result = run_experiment(
            _zoo_config(protocols=("nps_carry", "threshold"))
        )
        table = render_sweep_table(result, baseline="nps_carry")
        assert "max advantage of nps_carry over threshold:" in table

    def test_csv_and_ascii_cover_five_series(self):
        result = run_experiment(_zoo_config())
        header = sweep_to_csv(result).splitlines()[0]
        for protocol in ZOO:
            assert protocol in header
        plot = ascii_plot(result)
        assert "threshold" in plot and "regulated" in plot

    def test_svg_has_one_series_per_protocol(self):
        result = run_experiment(_zoo_config())
        svg = sweep_to_svg(result)
        document = minidom.parseString(svg)
        polylines = document.getElementsByTagName("polyline")
        assert len(polylines) == len(ZOO)
        for protocol in ZOO:
            assert protocol in svg

    def test_save_sweep_svg_writes_parseable_file(self, tmp_path):
        result = run_experiment(_zoo_config(protocols=("nps_carry",)))
        path = tmp_path / "zoo.svg"
        save_sweep_svg(result, str(path))
        document = minidom.parse(str(path))
        assert document.documentElement.tagName == "svg"


class TestCliBoundary:
    def test_unknown_protocols_flag_is_a_one_line_error(self, capsys):
        from repro.cli import main

        code = main([
            "figure", "fig2a", "--sets", "1", "--protocols", "foo",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: unknown protocol(s) 'foo'")
        assert "registered protocols:" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_malformed_regulation_flag(self, capsys):
        from repro.cli import main

        code = main([
            "figure", "fig2a", "--sets", "1", "--regulation", "bogus",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_thresholds_flag(self, capsys):
        from repro.cli import main

        code = main([
            "figure", "fig2a", "--sets", "1", "--thresholds", "a:b",
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestServiceCodec:
    """Wire round-trips must preserve the digest-bearing repr."""

    def test_zoo_options_roundtrip_repr_identically(self):
        options = AnalysisOptions(
            preemption_thresholds=(("mid", 0), ("lo", 1)),
            regulation=RegulationConfig(budget=0.5, period=1.0),
        )
        wire = json.loads(json.dumps(options_to_dict(options)))
        rebuilt = options_from_dict(wire)
        assert repr(rebuilt) == repr(options)

    def test_default_options_roundtrip(self):
        options = AnalysisOptions()
        wire = json.loads(json.dumps(options_to_dict(options)))
        assert repr(options_from_dict(wire)) == repr(options)
        assert options_from_dict(None) is None
