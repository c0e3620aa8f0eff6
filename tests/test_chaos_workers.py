"""Chaos: worker death, crash recovery, requeue, solo re-run, quarantine.

The ``worker.death`` site kills the process evaluating a (point, task
set) unit — ``exit`` via ``os._exit`` (its connection drops, which
names the unit it held), ``raise`` via an unexpected non-Repro
exception. The engine's contract:

* a unit whose worker died once is requeued (attempt + 1) and, being
  deterministic, merges bit-identically — the sweep equals the
  fault-free sequential run;
* a unit that kills workers twice is quarantined into the failure
  ledger (``WorkerCrashError`` per protocol) without contaminating any
  other unit;
* unexpected worker exceptions are never silently swallowed: ledgered
  under the lenient policies, propagated under RAISE, and
  KeyboardInterrupt/SystemExit always propagate.
"""

import dataclasses

import pytest

from repro.errors import WorkerCrashError
from repro.experiments import ExperimentConfig, SweepPoint, run_experiment
from repro.faults import FaultPlan, FaultSpec
from repro.generator.taskset_gen import GenerationConfig
from repro.obs import read_trace


@pytest.fixture
def config():
    points = tuple(
        SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
        for u in (0.2, 0.4)
    )
    return ExperimentConfig(
        name="chaos-workers",
        x_label="U",
        points=points,
        sets_per_point=2,
        seed=11,
        method="closed_form",
    )


def _identical(a, b):
    assert [p.x for p in a.points] == [p.x for p in b.points]
    for pa, pb in zip(a.points, b.points):
        assert pa.ratios == pb.ratios
        assert pa.failures == pb.failures
        assert dict(pa.analysis_stats) == dict(pb.analysis_stats)


class TestDeathOnce:
    def test_requeued_unit_merges_bit_identically(self, config, tmp_path):
        baseline = run_experiment(config)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="exit", point=1, unit=0,
                    attempt=0,
                ),
            ),
            name="death-once",
        )
        trace = tmp_path / "trace.jsonl"
        result = run_experiment(
            config, jobs=2, fault_plan=plan, trace_path=str(trace)
        )
        _identical(result, baseline)
        events = read_trace(trace)
        names = [e["name"] for e in events]
        assert "worker.crash" in names
        assert "worker.requeued" in names
        # The worker's own fault event died with it; the parent
        # synthesised the proof from the plan.
        deaths = [e for e in events if e["name"] == "fault.worker.death"]
        assert len(deaths) == 1
        assert deaths[0]["point"] == 1 and deaths[0]["unit"] == 0
        assert deaths[0]["f"]["synthesized"] is True

    def test_raise_mode_retries_then_succeeds(self, config):
        baseline = run_experiment(config)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="raise", point=0, unit=1,
                    attempt=0,
                ),
            ),
            name="raise-once",
        )
        result = run_experiment(config, jobs=2, fault_plan=plan)
        _identical(result, baseline)


class TestQuarantine:
    def test_persistent_killer_is_quarantined(self, config):
        baseline = run_experiment(config)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="exit", point=1, unit=0,
                    times=None,
                ),
            ),
            name="death-always",
        )
        result = run_experiment(config, jobs=2, fault_plan=plan)
        # The poisoned unit is ledgered, one record per protocol...
        ledger = result.points[1].failures
        assert {f.error_type for f in ledger} == {"WorkerCrashError"}
        assert {f.taskset_index for f in ledger} == {0}
        assert len(ledger) == len(config.protocols)
        assert ledger[0].taskset_digest  # reproducible offline
        # ...and every other unit is untouched.
        assert result.points[0].ratios == baseline.points[0].ratios
        assert result.points[1].sets_evaluated == config.sets_per_point

    def test_quarantine_counts_unschedulable_by_default(self, config):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="exit", point=0, unit=0,
                    times=None,
                ),
            ),
            name="death-always",
        )
        counted = run_experiment(config, jobs=2, fault_plan=plan)
        skipped = run_experiment(
            config, jobs=2, fault_plan=plan, failure_policy="skip"
        )
        # COUNT_UNSCHEDULABLE keeps the unit in the denominator; SKIP
        # drops it — the conservative ratio can only be lower.
        for protocol in config.protocols:
            assert (
                counted.points[0].ratios[protocol]
                <= skipped.points[0].ratios[protocol]
            )

    def test_raise_policy_propagates_worker_crash(self, config):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="exit", point=0, unit=0,
                    times=None,
                ),
            ),
            name="death-always",
        )
        with pytest.raises(WorkerCrashError, match="quarantined"):
            run_experiment(
                config, jobs=2, fault_plan=plan, failure_policy="raise"
            )

    def test_raise_mode_exception_is_ledgered_not_dropped(self, config):
        # An unexpected exception escaping a worker twice must land in
        # the ledger (satellite: the old engine swallowed it into a
        # bare BaseException re-raise with no record).
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="raise", point=0, unit=0,
                    times=None,
                ),
            ),
            name="raise-always",
        )
        result = run_experiment(config, jobs=2, fault_plan=plan)
        ledger = result.points[0].failures
        assert {f.error_type for f in ledger} == {"RuntimeError"}
        assert {f.taskset_index for f in ledger} == {0}
        assert "injected unexpected worker error" in ledger[0].message

    def test_raise_mode_propagates_under_raise_policy(self, config):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="raise", point=0, unit=0,
                ),
            ),
            name="raise-once",
        )
        with pytest.raises(RuntimeError, match="injected unexpected"):
            run_experiment(
                config, jobs=2, fault_plan=plan, failure_policy="raise"
            )


class TestCheckpointDuringRecovery:
    def test_checkpoint_survives_crash_recovery(self, config, tmp_path):
        # Under a fault plan the unit rows are neither read nor written;
        # the rerun without one stores the recovered sweep's units, and
        # the next rerun is served all of them, identically.
        path = str(tmp_path / "store.sqlite")
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="exit", point=0, unit=1,
                    attempt=0,
                ),
            ),
            name="death-once",
        )
        result = run_experiment(
            config, jobs=2, fault_plan=plan, cache_path=path
        )
        first = run_experiment(config, jobs=2, cache_path=path)
        again = run_experiment(config, jobs=2, cache_path=path)
        for point in first.points:
            assert dict(point.analysis_stats).get("unit_store.hits", 0) == 0
        for point in again.points:
            assert dict(point.analysis_stats)["unit_store.hits"] == (
                config.sets_per_point
            )
        _identical(result, first)
        assert [p.ratios for p in again.points] == [
            p.ratios for p in result.points
        ]


class TestSequentialEquivalence:
    def test_injected_parallel_equals_injected_sequential(self, config):
        # Unit-scoped budgets make the *injected* runs equivalent too:
        # a solver fault plan fires identically under jobs=1 and jobs=2.
        config = dataclasses.replace(config, method="milp", protocols=("proposed",))
        plan = FaultPlan(
            specs=(FaultSpec(site="solver.fault", mode="crash"),),
            name="crash-per-unit",
        )
        sequential = run_experiment(config, fault_plan=plan)
        parallel = run_experiment(config, fault_plan=plan, jobs=2)
        _identical(parallel, sequential)
