"""Tests for SVG export and experiment persistence."""

import xml.etree.ElementTree as ET

import pytest

from repro.errors import ExperimentError
from repro.examples_support import figure1_plan, figure1_taskset
from repro.experiments.config import ExperimentConfig, SweepPoint
from repro.experiments.persistence import (
    load_sweep,
    merge_sweeps,
    save_sweep,
    sweep_from_dict,
    sweep_to_dict,
)
from repro.experiments.runner import PointResult, SweepResult
from repro.generator.taskset_gen import GenerationConfig
from repro.sim.interval_sim import ProposedSimulator, WaslySimulator
from repro.sim.nps_sim import NpsSimulator
from repro.sim.svg import save_trace_svg, trace_to_svg


class TestSvgExport:
    @pytest.fixture
    def trace(self):
        return WaslySimulator(figure1_taskset()).run(figure1_plan())

    def test_valid_xml(self, trace):
        svg = trace_to_svg(trace)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_contains_task_rectangles(self, trace):
        svg = trace_to_svg(trace)
        assert svg.count("<rect") > 6
        assert "ti#0" in svg

    def test_dma_lane_for_interval_protocols(self, trace):
        assert ">DMA<" in trace_to_svg(trace)

    def test_nps_has_no_dma_lane(self):
        trace = NpsSimulator(figure1_taskset()).run(figure1_plan())
        assert ">DMA<" not in trace_to_svg(trace)

    def test_cancelled_copy_in_marked(self):
        # An LS release mid-copy aborts the lower-priority load with a
        # visible (nonzero-width) wasted-DMA bar.
        from repro.model.taskset import TaskSet
        from repro.sim.releases import ReleasePlan

        ts = TaskSet.from_parameters(
            [
                ("ls", 1.0, 0.2, 0.2, 20.0, 18.0),
                ("lp", 3.0, 1.0, 1.0, 50.0, 50.0),
            ]
        ).with_ls_marks(["ls"])
        plan = ReleasePlan(
            releases={"lp": (0.0,), "ls": (0.5,)}, horizon=30.0
        )
        trace = ProposedSimulator(ts).run(plan)
        assert trace.jobs_of("lp")[0].was_cancelled
        assert "cancelled copy-in" in trace_to_svg(trace)

    def test_save_to_file(self, trace, tmp_path):
        path = tmp_path / "trace.svg"
        save_trace_svg(trace, path, until=14.0)
        content = path.read_text()
        assert content.startswith("<svg")
        ET.fromstring(content)

    def test_until_respected(self, trace):
        svg = trace_to_svg(trace, until=5.0)
        assert "0..5" in svg


def _sweep(seed=1, sets=4, ratios=(0.5, 0.25)):
    config = ExperimentConfig(
        name="demo",
        x_label="U",
        points=tuple(
            SweepPoint(x, GenerationConfig(utilization=x))
            for x in (0.2, 0.4)
        ),
        sets_per_point=sets,
        seed=seed,
    )
    return SweepResult(
        config=config,
        points=tuple(
            PointResult(
                x=x,
                ratios={p: r for p in config.protocols},
                sets_evaluated=sets,
                elapsed_seconds=1.0,
            )
            for x, r in zip((0.2, 0.4), ratios)
        ),
    )


class TestPersistence:
    def test_round_trip(self, tmp_path):
        result = _sweep()
        path = tmp_path / "sweep.json"
        save_sweep(result, path)
        loaded = load_sweep(path)
        assert loaded.config.name == "demo"
        assert loaded.series("proposed") == result.series("proposed")
        assert loaded.config.points[0].generation.utilization == 0.2

    def test_dict_round_trip(self):
        result = _sweep()
        assert sweep_from_dict(sweep_to_dict(result)).x_values == [0.2, 0.4]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_sweep(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ExperimentError):
            load_sweep(path)

    def test_bad_version(self):
        with pytest.raises(ExperimentError):
            sweep_from_dict({"format_version": 99})

    def test_merge_weighted_average(self):
        a = _sweep(seed=1, sets=4, ratios=(1.0, 0.5))
        b = _sweep(seed=2, sets=12, ratios=(0.5, 0.25))
        merged = merge_sweeps(a, b)
        assert merged.points[0].sets_evaluated == 16
        assert merged.points[0].ratios["proposed"] == pytest.approx(
            (1.0 * 4 + 0.5 * 12) / 16
        )
        assert merged.config.sets_per_point == 16

    def test_merge_rejects_same_seed(self):
        with pytest.raises(ExperimentError):
            merge_sweeps(_sweep(seed=1), _sweep(seed=1))

    def test_merge_rejects_different_experiments(self):
        a = _sweep(seed=1)
        b = _sweep(seed=2)
        import dataclasses

        other = SweepResult(
            config=dataclasses.replace(b.config, name="other"),
            points=b.points,
        )
        with pytest.raises(ExperimentError):
            merge_sweeps(a, other)

    @staticmethod
    def _with_config(result, **changes):
        import dataclasses

        return SweepResult(
            config=dataclasses.replace(result.config, **changes),
            points=result.points,
        )

    def test_merge_rejects_different_generation_parameters(self):
        # Same name, x values, protocols and method, but the samples
        # were drawn under another gamma: pooling them would mislabel.
        a = _sweep(seed=1)
        b = _sweep(seed=2)
        regenerated = self._with_config(
            b,
            points=tuple(
                SweepPoint(p.x, GenerationConfig(utilization=p.x, gamma=0.9))
                for p in b.config.points
            ),
        )
        assert [p.x for p in regenerated.config.points] == [
            p.x for p in a.config.points
        ]
        with pytest.raises(ExperimentError):
            merge_sweeps(a, regenerated)

    def test_merge_rejects_different_ls_policy(self):
        a = _sweep(seed=1)
        b = self._with_config(_sweep(seed=2), ls_policy="all_ls")
        assert b.config.ls_policy != a.config.ls_policy
        with pytest.raises(ExperimentError):
            merge_sweeps(a, b)
