"""Sharded sweep service: coordinator, workers, and submit client.

The distributed face of the experiment engine (``repro serve`` /
``repro submit``). The coordinator shards a sweep into the same pure
(point, task set) units the local engines use, answers already-solved
units straight from the unit rows of the persistent store, dispatches
only the missing work to socket-connected workers, and merges through
the same parent-side scheduler — bit-identical to a sequential run.
See :mod:`repro.service.coordinator` for the pipeline and
:mod:`repro.service.wire` for the protocol.
"""

from repro.service.client import submit_sweep
from repro.service.coordinator import (
    SweepService,
    run_service_sweep,
    serve,
)
from repro.service.worker import spawn_worker, worker_main

__all__ = [
    "SweepService",
    "run_service_sweep",
    "serve",
    "spawn_worker",
    "submit_sweep",
    "worker_main",
]
