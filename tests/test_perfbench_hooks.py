"""The benchmark's tracer must find every layer entry point it wraps.

``perfbench.tracer.install`` times each layer by rebinding its entry
point by name. Renaming or removing one of those functions breaks the
traced benchmark run and nothing else, so this test installs the
tracer, checks that every entry point was wrapped, and checks that the
returned undo function puts each original back.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import Recorder, install  # noqa: E402


def _entry_points():
    from repro.analysis import cache, schedulability, store
    from repro.analysis.proposed import closed_form, formulation
    from repro.experiments import runner, units
    from repro.generator import taskset_gen
    from repro.milp import highs, model, relaxation
    from repro.service import client, coordinator, wire

    return {
        "taskset_gen.generate_tasksets": (taskset_gen, "generate_tasksets"),
        "highs.milp": (highs, "milp"),
        "formulation.build_delay_milp": (formulation, "build_delay_milp"),
        "formulation.update_delay_milp": (formulation, "update_delay_milp"),
        "MilpModel.compile": (model.MilpModel, "compile"),
        "relaxation.screen_batch": (relaxation, "screen_batch"),
        "LpRelaxationBackend.solve_compiled": (
            relaxation.LpRelaxationBackend, "solve_compiled"
        ),
        "closed_form.closed_form_delay_bounds_batch": (
            closed_form, "closed_form_delay_bounds_batch"
        ),
        "schedulability.is_schedulable": (schedulability, "is_schedulable"),
        "AnalysisCache.get": (cache.AnalysisCache, "get"),
        "PersistentStore.fetch": (store.PersistentStore, "fetch"),
        "PersistentStore.fetch_many": (store.PersistentStore, "fetch_many"),
        "PersistentStore.store": (store.PersistentStore, "store"),
        "units._evaluate_unit": (units, "_evaluate_unit"),
        # The name the in-process (jobs=1) driver calls.
        "runner._evaluate_unit": (runner, "_evaluate_unit"),
        "units._merge_units": (units, "_merge_units"),
        "wire.encode_frame": (wire, "encode_frame"),
        "wire._decode_payload": (wire, "_decode_payload"),
        "client.recv_message": (client, "recv_message"),
        "SweepService._handle_client": (
            coordinator.SweepService, "_handle_client"
        ),
    }


def test_tracer_wraps_every_layer_and_undo_restores_it(tmp_path):
    targets = _entry_points()
    originals = {
        name: getattr(owner, attr) for name, (owner, attr) in targets.items()
    }
    undo = install(Recorder(tmp_path))
    try:
        unwrapped = [
            name
            for name, (owner, attr) in targets.items()
            if getattr(owner, attr) is originals[name]
        ]
        assert unwrapped == []
    finally:
        undo()
    restored = [
        name
        for name, (owner, attr) in targets.items()
        if getattr(owner, attr) is originals[name]
    ]
    assert restored == list(targets)
