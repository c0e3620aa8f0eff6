"""Deterministic, seedable fault injection (``repro.faults``).

The chaos layer of the experiment engine: :class:`FaultPlan` scripts
*what* to break (see :data:`SITES`), :func:`injecting`/:func:`fire`
decide *when* (deterministic predicates over point/unit/protocol/
attempt plus seeded probabilities), and the instrumented layers —
:mod:`repro.milp.highs`, :mod:`repro.experiments.runner`,
:mod:`repro.experiments.persistence`, :mod:`repro.obs.events` — perform
the fault. Every injection lands in the trace as a ``fault.*`` event.

The contract the chaos test suite enforces: for every recoverable plan,
``run_experiment`` under injection terminates with ratios, failure
ledgers, and analysis stats bit-identical to the fault-free sequential
run.
"""

from repro.faults.injection import (
    FiredFault,
    Injection,
    active,
    fire,
    injecting,
)
from repro.faults.plan import (
    SITES,
    FaultPlan,
    FaultSpec,
    load_plan,
    save_plan,
)

__all__ = [
    "SITES",
    "FaultPlan",
    "FaultSpec",
    "FiredFault",
    "Injection",
    "active",
    "fire",
    "injecting",
    "load_plan",
    "save_plan",
]
