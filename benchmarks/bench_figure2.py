"""Fig. 2 reproduction benchmarks: schedulability-ratio sweeps.

One test per inset (a)-(f). Each runs a *reduced-size* version of the
paper's experiment (subsampled sweep, ~8 task sets per point instead of
the paper's larger samples) with the full MILP analysis, prints the
series, and asserts the qualitative shape the paper reports:

* the proposed protocol schedules at least as many sets as protocol [3]
  and as NPS at every point (up to small-sample noise);
* at gamma = 0.1 (insets (a), (b), and the low end of (e)) protocol [3]
  can fall *below* NPS — the phenomenon motivating the paper;
* the advantage of the DMA protocols over NPS grows with gamma
  (inset (e)), and the advantage of the proposed protocol is largest
  for tight deadlines (small beta, inset (f)).

Full-size runs: ``repro figure fig2a --sets 50``.
"""

import pytest

from _helpers import assert_proposed_dominates, run_and_report, scaled_inset

#: Task sets per sweep point in the reduced benchmarks.
SETS = 8
#: fig2b uses n=10 tasks (bigger MILPs): fewer sets.
SETS_B = 4


def _run(benchmark, config, options):
    return benchmark.pedantic(
        lambda: run_and_report(config, options), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group="figure2")
def test_fig2a(benchmark, bench_options):
    """Inset (a): ratio vs U; n=6, gamma=0.1, beta=0.5."""
    config = scaled_inset("fig2a", SETS, start=1, stop=5)  # U=.2,.3,.4,.5
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)
    # Ratios must be non-increasing in U (monotone pressure).
    series = result.series("proposed")
    assert all(b <= a + 1 / SETS for (_, a), (_, b) in zip(series, series[1:]))


@pytest.mark.benchmark(group="figure2")
def test_fig2b(benchmark, bench_options):
    """Inset (b): as (a) with n=10 tasks."""
    config = scaled_inset("fig2b", SETS_B, start=1, stop=4)  # U=.2,.3,.4
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)


@pytest.mark.benchmark(group="figure2")
def test_fig2c(benchmark, bench_options):
    """Inset (c): tighter deadlines (beta=0.25), gamma=0.3."""
    config = scaled_inset("fig2c", SETS, start=1, stop=5)  # U=.2,.3,.4,.5
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)
    # The paper reports the largest NPS gap in this configuration.
    assert result.advantage("proposed", "nps_carry") >= 0.0


@pytest.mark.benchmark(group="figure2")
def test_fig2d(benchmark, bench_options):
    """Inset (d): memory-heavy tasks (gamma=0.5)."""
    config = scaled_inset("fig2d", SETS, start=1, stop=5)  # U=.2,.3,.4,.5
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)


@pytest.mark.benchmark(group="figure2")
def test_fig2e(benchmark, bench_options):
    """Inset (e): ratio vs gamma at U=0.5.

    The DMA advantage must grow with gamma: the gap between the
    proposed protocol and NPS at gamma=0.5 is at least the gap at
    gamma=0.1 (up to one-set noise).
    """
    config = scaled_inset("fig2e", SETS, keep_every=2)  # gamma=.1,.3,.5
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)
    gaps = [
        p.ratios["proposed"] - p.ratios["nps_carry"] for p in result.points
    ]
    assert gaps[-1] >= gaps[0] - 1 / SETS


@pytest.mark.benchmark(group="figure2")
def test_fig2f(benchmark, bench_options):
    """Inset (f): ratio vs beta at U=0.5, gamma=0.3.

    Looser deadlines (larger beta) help every approach: each series
    must be non-decreasing in beta (up to one-set noise).
    """
    config = scaled_inset("fig2f", SETS, keep_every=2)  # beta=0,.5,1
    result = _run(benchmark, config, bench_options)
    assert_proposed_dominates(result)
    for protocol in result.config.protocols:
        series = result.series(protocol)
        assert all(
            b >= a - 1 / SETS for (_, a), (_, b) in zip(series, series[1:])
        ), protocol
