"""The sweep service: wire framing, digests, equivalence, recovery.

The service coordinator must be a *transport*, never a semantics
layer: every sweep it processes has to equal the sequential engine
bit-for-bit (ratios, ledger, analysis counters), whether units were
evaluated by socket-connected workers, served from the persistent
unit store, resumed from a store with torn rows, or requeued after a
worker died mid-unit. These tests pin that contract alongside the
``--jobs N`` equivalence matrix in ``test_parallel_sweep.py``.
"""

import dataclasses
import socket
import sqlite3
import struct
import threading

import pytest

from repro.analysis.interface import AnalysisOptions
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    SweepPoint,
    SweepResult,
    run_experiment,
)
from repro.experiments.config import figure2_config
from repro.experiments.units import unit_digest
from repro.faults import FaultPlan, FaultSpec
from repro.generator.taskset_gen import GenerationConfig
from repro.obs import read_trace, recording
from repro.service import SweepService, run_service_sweep, serve, submit_sweep
from repro.service.worker import _check_disconnect
from repro.service.wire import (
    MAX_FRAME,
    WireError,
    encode_frame,
    recv_message,
    send_message,
)


def _reduced(inset: str, sets: int = 2, step: slice = slice(2, 5, 2)):
    config = figure2_config(inset, sets_per_point=sets, seed=2020)
    return dataclasses.replace(config, points=config.points[step])


def _identical(a: SweepResult, b: SweepResult) -> None:
    assert [p.x for p in a.points] == [p.x for p in b.points]
    for pa, pb in zip(a.points, b.points):
        assert pa.ratios == pb.ratios
        assert pa.failures == pb.failures
        assert pa.sets_evaluated == pb.sets_evaluated
        assert dict(pa.analysis_stats) == dict(pb.analysis_stats)


class TestWireFraming:
    def test_roundtrip_preserves_messages(self):
        a, b = socket.socketpair()
        messages = [
            {"type": "hello", "role": "worker", "pid": 1234},
            {"type": "unit", "sweep": "s0", "point": 3, "unit": 1,
             "attempt": 0},
        ]
        for message in messages:
            send_message(a, message)
        a.close()
        assert recv_message(b) == messages[0]
        assert recv_message(b) == messages[1]
        # Clean end-of-stream is None, not an error.
        assert recv_message(b) is None
        b.close()

    def test_mid_frame_cut_raises(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", 100) + b'{"type":')
        a.close()
        with pytest.raises(ConnectionError, match="mid-frame"):
            recv_message(b)
        b.close()

    def test_oversized_announcement_rejected(self):
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(WireError, match="exceeds"):
            recv_message(b)
        a.close()
        b.close()

    def test_untyped_payload_rejected(self):
        a, b = socket.socketpair()
        payload = b"[1,2,3]"
        a.sendall(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(WireError, match="typed message"):
            recv_message(b)
        a.close()
        b.close()

    def test_nan_never_crosses_the_wire(self):
        with pytest.raises(ValueError):
            encode_frame({"type": "result", "ratio": float("nan")})


class TestUnitDigest:
    """Content addressing: overlap where results provably coincide."""

    def test_widened_sweep_shares_prefix_digests(self):
        # Task set i comes from a sequential seeded stream, so drawing
        # more sets afterwards cannot change it: digests must overlap.
        base = _reduced("fig2a", sets=2)
        wide = dataclasses.replace(
            base, sets_per_point=3, name="renamed"
        )
        for point_index in range(len(base.points)):
            for taskset_index in range(2):
                assert unit_digest(
                    base, point_index, taskset_index, None,
                    "count_unschedulable",
                ) == unit_digest(
                    wide, point_index, taskset_index, None,
                    "count_unschedulable",
                )

    def test_semantic_inputs_change_the_digest(self):
        config = _reduced("fig2a")
        digest = unit_digest(config, 0, 0, None, "count_unschedulable")
        assert digest != unit_digest(
            config, 1, 0, None, "count_unschedulable"
        )
        assert digest != unit_digest(
            config, 0, 1, None, "count_unschedulable"
        )
        assert digest != unit_digest(config, 0, 0, None, "skip")
        reseeded = dataclasses.replace(config, seed=config.seed + 1)
        assert digest != unit_digest(
            reseeded, 0, 0, None, "count_unschedulable"
        )
        timed = AnalysisOptions(time_limit=5.0)
        assert digest != unit_digest(
            config, 0, 0, timed, "count_unschedulable"
        )

    def test_none_options_mean_the_defaults(self):
        config = _reduced("fig2a")
        assert unit_digest(
            config, 0, 0, None, "count_unschedulable"
        ) == unit_digest(
            config, 0, 0, AnalysisOptions(), "count_unschedulable"
        )


class TestServiceEquivalence:
    """Tentpole: service results are bit-identical to sequential."""

    def test_service_matches_sequential_bit_identically(self):
        config = _reduced("fig2a")
        sequential = run_experiment(config)
        service = run_service_sweep(config, workers=2)
        _identical(sequential, service)

    def test_failure_ledger_identical_through_the_wire(self):
        points = tuple(
            SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
            for u in (0.2, 0.4)
        )
        config = ExperimentConfig(
            name="svc-ledger",
            x_label="U",
            points=points,
            sets_per_point=3,
            seed=11,
            method="closed_form",
            ls_policy="bogus",
        )
        sequential = run_experiment(config)
        service = run_service_sweep(config, workers=2)
        _identical(sequential, service)
        assert sequential.failures  # the deterministic failure fired

    def test_raise_policy_propagates_to_the_submitter(self):
        points = (
            SweepPoint(0.2, GenerationConfig(n=3, utilization=0.2, gamma=0.1)),
        )
        config = ExperimentConfig(
            name="svc-boom",
            x_label="U",
            points=points,
            sets_per_point=2,
            seed=11,
            method="closed_form",
            ls_policy="bogus",
        )
        with pytest.raises(ExperimentError):
            run_service_sweep(config, workers=2, failure_policy="raise")

    def test_empty_denominator_ratios_cross_the_wire(self):
        # SKIP keeps failed evaluations out of ``attempted``; with
        # every evaluation failing the denominator is 0 and the ratio
        # is pinned to 0.0 — identically on both paths.
        points = (
            SweepPoint(0.2, GenerationConfig(n=3, utilization=0.2, gamma=0.1)),
        )
        config = ExperimentConfig(
            name="svc-empty",
            x_label="U",
            points=points,
            sets_per_point=2,
            seed=11,
            method="closed_form",
            ls_policy="bogus",
            protocols=("proposed",),
        )
        sequential = run_experiment(config, failure_policy="skip")
        service = run_service_sweep(
            config, workers=2, failure_policy="skip"
        )
        _identical(sequential, service)
        assert service.points[0].ratios == {"proposed": 0.0}
        assert service.series("proposed") == [(0.2, 0.0)]


class TestAdvantageAndSeries:
    """Satellite: ratio accessors around empty denominators."""

    def _config(self, protocols=("proposed", "nps")):
        points = (
            SweepPoint(0.2, GenerationConfig(n=3, utilization=0.2, gamma=0.1)),
        )
        return ExperimentConfig(
            name="adv",
            x_label="U",
            points=points,
            sets_per_point=2,
            seed=11,
            method="closed_form",
            ls_policy="bogus",
            protocols=protocols,
        )

    def test_advantage_with_zeroed_protocol(self):
        result = run_experiment(self._config(), failure_policy="skip")
        assert result.points[0].ratios["proposed"] == 0.0
        nps = result.points[0].ratios["nps"]
        assert result.advantage("proposed", "nps") == 0.0 - nps
        assert result.advantage("nps", "proposed") == nps

    def test_advantage_on_empty_sweep_raises(self):
        empty = SweepResult(config=self._config(), points=())
        with pytest.raises(ExperimentError, match="empty sweep"):
            empty.advantage("proposed", "nps")
        assert empty.series("proposed") == []
        assert empty.x_values == []
        assert empty.failures == ()

    def test_advantage_rejects_unknown_protocols(self):
        result = run_experiment(self._config(), failure_policy="skip")
        with pytest.raises(ExperimentError, match="unknown protocol"):
            result.advantage("proposed", "edf")


class TestServiceStore:
    """Tentpole: the pre-dispatch digest probe against the unit store."""

    def test_warm_repeat_is_served_entirely_from_store(self, tmp_path):
        config = _reduced("fig2a")
        cache = tmp_path / "store.sqlite"
        cold = run_service_sweep(config, workers=2, cache_path=str(cache))
        assert any(
            dict(p.analysis_stats).get("unit_store.hits", 0) == 0
            for p in cold.points
        )
        # Every unit has to come from the store — zero analysis work
        # of any kind.
        warm = run_service_sweep(config, workers=2, cache_path=str(cache))
        assert [p.ratios for p in warm.points] == [
            p.ratios for p in cold.points
        ]
        assert [p.failures for p in warm.points] == [
            p.failures for p in cold.points
        ]
        for point in warm.points:
            stats = dict(point.analysis_stats)
            assert stats.pop("unit_store.hits") == config.sets_per_point
            assert all(value == 0 for value in stats.values())

    def test_widened_sweep_serves_the_shared_prefix(self, tmp_path):
        config = _reduced("fig2a", sets=2)
        cache = tmp_path / "store.sqlite"
        run_service_sweep(config, workers=2, cache_path=str(cache))
        widened = dataclasses.replace(config, sets_per_point=3)
        result = run_service_sweep(
            widened, workers=2, cache_path=str(cache)
        )
        sequential = run_experiment(widened)
        assert [p.ratios for p in result.points] == [
            p.ratios for p in sequential.points
        ]
        for point in result.points:
            # Task sets 0..1 are served; only set 2 is evaluated.
            assert dict(point.analysis_stats)["unit_store.hits"] == 2
            assert point.sets_evaluated == 3

    def test_fault_plan_disables_the_store_tier(self, tmp_path):
        # A chaos run must neither serve stale results nor poison the
        # store with fault-shaped ones.
        config = _reduced("fig2a")
        cache = tmp_path / "store.sqlite"
        run_service_sweep(config, workers=2, cache_path=str(cache))
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="exit", point=0, unit=0,
                    attempt=0,
                ),
            ),
            name="svc-no-store",
        )
        chaotic = run_service_sweep(
            config, workers=2, cache_path=str(cache), fault_plan=plan
        )
        for point in chaotic.points:
            assert dict(point.analysis_stats).get(
                "unit_store.hits", 0
            ) == 0


class TestServiceChaos:
    """Worker death and network partition through the socket path."""

    @pytest.fixture
    def config(self):
        points = tuple(
            SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
            for u in (0.2, 0.4)
        )
        return ExperimentConfig(
            name="svc-chaos",
            x_label="U",
            points=points,
            sets_per_point=2,
            seed=11,
            method="closed_form",
        )

    def test_worker_death_mid_sweep_is_requeued(self, config, tmp_path):
        baseline = run_experiment(config)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="exit", point=1, unit=0,
                    attempt=0,
                ),
            ),
            name="svc-death-once",
        )
        trace = tmp_path / "svc.trace.jsonl"
        result = run_service_sweep(
            config,
            workers=2,
            fault_plan=plan,
            trace_path=str(trace),
        )
        _identical(result, baseline)
        names = [e["name"] for e in read_trace(trace)]
        assert "service.worker.left" in names
        assert "worker.requeued" in names
        assert names.count("service.worker.joined") >= 2

    def test_injected_disconnect_is_requeued(self, config):
        baseline = run_experiment(config)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="service.disconnect", mode="drop", point=0,
                    unit=1, attempt=0,
                ),
            ),
            name="svc-partition",
        )
        result = run_service_sweep(config, workers=2, fault_plan=plan)
        _identical(result, baseline)

    def test_injected_disconnect_reaches_the_trace(self, config, tmp_path):
        # The worker drops its connection before the unit has a
        # recorder, so the coordinator re-derives the fault event.
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="service.disconnect", mode="drop", point=0,
                    unit=1, attempt=0,
                ),
            ),
            name="svc-partition",
        )
        trace = tmp_path / "svc.trace.jsonl"
        run_service_sweep(
            config, workers=2, fault_plan=plan, trace_path=str(trace)
        )
        events = list(read_trace(trace))
        (fault,) = [
            e for e in events if e["name"] == "fault.service.disconnect"
        ]
        assert (fault["point"], fault["unit"]) == (0, 1)
        assert fault["f"] == {
            "mode": "drop", "plan": "svc-partition", "synthesized": True,
        }
        assert not any(e["name"] == "fault.worker.death" for e in events)
        assert "worker.requeued" in [e["name"] for e in events]

    def test_disconnect_fires_for_its_unit_and_attempt_only(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="service.disconnect", mode="drop", point=0,
                    unit=1, attempt=0,
                ),
            ),
            name="svc-partition",
        )
        with recording() as recorder:
            assert not _check_disconnect(plan, 0, 0, 0)
            assert not _check_disconnect(plan, 0, 1, 1)
            assert not _check_disconnect(None, 0, 1, 0)
            assert _check_disconnect(plan, 0, 1, 0)
        (event,) = recorder.events
        assert event["name"] == "fault.service.disconnect"
        assert (event["point"], event["unit"]) == (0, 1)
        assert event["f"] == {"mode": "drop", "spec": 0, "plan": "svc-partition"}

    def test_persistent_killer_is_quarantined(self, config):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="worker.death", mode="exit", point=1, unit=0,
                    times=None,
                ),
            ),
            name="svc-death-always",
        )
        result = run_service_sweep(config, workers=2, fault_plan=plan)
        ledger = result.points[1].failures
        assert {f.error_type for f in ledger} == {"WorkerCrashError"}
        assert {f.taskset_index for f in ledger} == {0}
        assert result.points[1].sets_evaluated == config.sets_per_point


class TestColdStartJoins:
    """Regression: a cold start waits for the workers it spawned.

    The first dispatch used to run before any worker had connected,
    see no live worker, and spawn a replacement — one worker too many.
    The tests count the processes the service spawns, not the joins a
    trace records: under load the first workers may finish every unit
    before the last one says hello, and its join is never traced.
    """

    @pytest.fixture
    def config(self):
        points = tuple(
            SweepPoint(u, GenerationConfig(n=3, utilization=u, gamma=0.1))
            for u in (0.2, 0.3, 0.4, 0.5)
        )
        return ExperimentConfig(
            name="svc-joins",
            x_label="U",
            points=points,
            sets_per_point=2,
            seed=11,
            method="closed_form",
        )

    @pytest.fixture
    def spawns(self, monkeypatch):
        """Every ``spawn_workers`` count of the run, in call order."""
        counts: list[int] = []
        real = SweepService.spawn_workers

        def counting(service, count):
            counts.append(count)
            real(service, count)

        monkeypatch.setattr(SweepService, "spawn_workers", counting)
        return counts

    @pytest.mark.parametrize("workers", [2, 3])
    def test_service_sweep_joins_exactly_its_workers(
        self, config, spawns, workers
    ):
        run_service_sweep(config, workers=workers)
        assert spawns == [workers]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_local_fleet_joins_exactly_its_workers(self, config, spawns, jobs):
        run_experiment(config, jobs=jobs)
        assert spawns == [jobs]


class TestServiceResume:
    """Unit-store recovery through the service path (torn rows)."""

    def test_torn_checkpoint_heals_to_a_full_recompute(self, tmp_path):
        config = _reduced("fig2a")
        cache = tmp_path / "store.sqlite"
        first = run_service_sweep(config, workers=2, cache_path=str(cache))
        with sqlite3.connect(cache) as conn:
            conn.execute("UPDATE entries SET payload = substr(payload, 1, 9)")
        conn.close()
        again = run_service_sweep(config, workers=2, cache_path=str(cache))
        assert [p.ratios for p in again.points] == [
            p.ratios for p in first.points
        ]
        assert [p.failures for p in again.points] == [
            p.failures for p in first.points
        ]
        for point in again.points:
            stats = dict(point.analysis_stats)
            assert stats["unit_store.hits"] == 0
            assert stats["unit_store.corrupt"] == config.sets_per_point
        healed = run_service_sweep(config, workers=2, cache_path=str(cache))
        for point in healed.points:
            stats = dict(point.analysis_stats)
            assert stats.pop("unit_store.hits") == config.sets_per_point
            assert not any(stats.values())


class TestServeSubmitLoop:
    """End-to-end client path: one server, two submits, warm second."""

    def test_second_submit_is_served_from_store(self, tmp_path):
        config = _reduced("fig2a")
        ready = threading.Event()
        box = {}

        def on_ready(port):
            box["port"] = port
            ready.set()

        thread = threading.Thread(
            target=serve,
            kwargs={
                "workers": 2,
                "cache_path": str(tmp_path / "store.sqlite"),
                "max_sweeps": 2,
                "ready": on_ready,
            },
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=60), "service never became ready"

        seen_points = []
        cold = submit_sweep(
            "127.0.0.1",
            box["port"],
            config,
            progress=lambda p: seen_points.append(p["x"]),
        )
        assert sorted(seen_points) == [p.x for p in cold.points]

        # Second, identical submit: the store answers every unit, a
        # zero-solve warm path end to end.
        unit_counts = []
        warm = submit_sweep(
            "127.0.0.1",
            box["port"],
            config,
            unit_progress=lambda d, t, s: unit_counts.append((d, t, s)),
        )
        assert [p.ratios for p in warm.points] == [
            p.ratios for p in cold.points
        ]
        units = len(config.points) * config.sets_per_point
        assert unit_counts == [(units, units, units)]
        thread.join(timeout=60)
        assert not thread.is_alive()
