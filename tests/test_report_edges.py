"""Edge cases of reporting and curve validation helpers."""

import pytest

from repro.curves import SporadicArrival, StaircaseCurve
from repro.errors import CurveError
from repro.experiments.config import ExperimentConfig, SweepPoint, figure2_config
from repro.experiments.report import (
    aggregate_analysis_stats,
    ascii_plot,
    render_sweep_table,
)
from repro.experiments.runner import PointResult, SweepResult, run_experiment
from repro.generator.taskset_gen import GenerationConfig


def _result(points):
    config = ExperimentConfig(
        name="edge",
        x_label="U",
        points=tuple(
            SweepPoint(x, GenerationConfig(utilization=max(x, 0.1)))
            for x, _ in points
        ),
        sets_per_point=4,
    )
    return SweepResult(
        config=config,
        points=tuple(
            PointResult(
                x=x,
                ratios={p: r for p in config.protocols},
                sets_evaluated=4,
                elapsed_seconds=0.1,
            )
            for x, r in points
        ),
    )


class TestReportEdges:
    def test_single_point_plot(self):
        art = ascii_plot(_result([(0.5, 0.75)]), width=20, height=6)
        assert "0.5" in art

    def test_ratio_extremes_land_on_grid(self):
        art = ascii_plot(_result([(0.1, 0.0), (0.9, 1.0)]), width=30, height=5)
        lines = art.splitlines()
        assert lines[1].startswith(" 1.00 |")  # top row exists
        assert any("|" in line for line in lines)

    def test_table_single_point(self):
        table = render_sweep_table(_result([(0.3, 0.5)]))
        assert "0.3" in table
        assert "max advantage" in table


    def test_closed_form_sweep_footer_names_every_screen(self):
        # A closed-form sweep looks nothing up in the analysis cache,
        # yet its screens proved tasks: the footer still shows them.
        sweep = run_experiment(
            figure2_config("fig2e", sets_per_point=2, seed=2020, method="closed_form")
        )
        stats = aggregate_analysis_stats(sweep.points)
        assert stats["hits"] + stats["misses"] == 0
        assert stats["closed_form_screens"] == 6
        table = render_sweep_table(sweep)
        assert "analysis cache:" not in table
        assert "screens: 6 closed form, 0 LP at t_D, 0 LS case (b)" in table


class TestCurveValidation:
    def test_validate_accepts_sporadic(self):
        SporadicArrival(10.0).validate()

    def test_validate_rejects_broken_curve(self):
        class Broken(SporadicArrival):
            def eta(self, delta):
                return 1  # eta(0) != 0

        with pytest.raises(CurveError):
            Broken(10.0).validate()

    def test_validate_rejects_nonmonotone(self):
        class Wobbly(SporadicArrival):
            def eta(self, delta):
                if delta <= 0:
                    return 0
                return 5 if delta < 50 else 2

        with pytest.raises(CurveError):
            Wobbly(10.0).validate()

    def test_staircase_delta_min_generic_bisection(self):
        curve = StaircaseCurve([(0.0, 1), (5.0, 2), (10.0, 3)])
        for n in (1, 2, 3, 5):
            assert curve.eta(curve.delta_min(n)) >= n
