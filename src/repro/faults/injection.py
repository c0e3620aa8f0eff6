"""Activation of fault plans: scopes, trigger counters, ``fire()``.

Instrumented call sites ask :func:`fire` whether a scripted fault
should trigger *here*; the answer is the matching
:class:`~repro.faults.plan.FaultSpec` (the site then performs the
fault: raise, return garbage, ``os._exit``, skip a rename) or ``None``
— which is also the unconditional answer whenever no plan is active,
so production code pays one list lookup, exactly like :mod:`repro.obs`.

Scopes
------
A plan is activated with :func:`injecting`, which pushes an
:class:`Injection` scope carrying

* the ambient context (sweep point, work unit, retry attempt) merged
  into every ``fire()`` call, and
* the ``after``/``times`` counters and the probability generator.

The experiment runner opens one scope per **work unit** (in the worker
process under ``--jobs N``, inline under ``--jobs 1``), so unit-level
trigger budgets reset per unit in both execution modes — the property
that keeps injected parallel runs equivalent to injected sequential
runs. A second, run-level scope in the parent covers the sites outside
any unit (trace lines, filesystem errors); its
counters span the whole run. The innermost scope wins, mirroring the
recorder stack in :mod:`repro.obs.events`.

Every fired injection is recorded twice: as a schema-valid
``fault.<site>`` event through :func:`repro.obs.events.emit` (so traces
prove what was injected where) and on the scope's :attr:`Injection.fired`
log (so tests can assert without tracing).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.faults.plan import FaultPlan, FaultSpec
from repro.obs import events as obs


@dataclass(frozen=True)
class FiredFault:
    """One injection that actually triggered, for assertions/logs."""

    site: str
    mode: str
    spec_index: int
    point: int | None
    unit: int | None
    protocol: str | None
    attempt: int | None


class Injection:
    """One active plan scope: context + per-scope trigger state."""

    def __init__(
        self,
        plan: FaultPlan,
        *,
        point: int | None = None,
        unit: int | None = None,
        attempt: int | None = None,
    ) -> None:
        self.plan = plan
        self.point = point
        self.unit = unit
        self.attempt = attempt
        self._hits = [0] * len(plan.specs)
        self._fires = [0] * len(plan.specs)
        self._rng: np.random.Generator | None = None
        #: Chronological log of the scope's fired injections.
        self.fired: list[FiredFault] = []

    def _random(self) -> float:
        if self._rng is None:
            # Seeded per scope from the plan seed and the ambient
            # context, so probabilistic plans stay deterministic and
            # identical across process placements.
            self._rng = np.random.default_rng(
                [self.plan.seed, self.point or 0, self.unit or 0]
            )
        return float(self._rng.random())

    def fire(
        self,
        site: str,
        *,
        point: int | None = None,
        unit: int | None = None,
        protocol: str | None = None,
        attempt: int | None = None,
        **fields: object,
    ) -> FaultSpec | None:
        """First spec that triggers at this site hit, counting state.

        Call-site context overrides the scope's ambient context field
        by field; extra keyword ``fields`` are forwarded onto the
        emitted ``fault.*`` event.
        """
        point = point if point is not None else self.point
        unit = unit if unit is not None else self.unit
        attempt = attempt if attempt is not None else self.attempt
        for index, spec in enumerate(self.plan.specs):
            if not spec.matches(
                site, point=point, unit=unit, protocol=protocol,
                attempt=attempt,
            ):
                continue
            if spec.times is not None and self._fires[index] >= spec.times:
                continue
            self._hits[index] += 1
            if self._hits[index] <= spec.after:
                continue
            if spec.probability is not None and (
                self._random() >= spec.probability
            ):
                continue
            self._fires[index] += 1
            record = FiredFault(
                site=site,
                mode=spec.mode,
                spec_index=index,
                point=point,
                unit=unit,
                protocol=protocol,
                attempt=attempt,
            )
            self.fired.append(record)
            obs.emit(
                f"fault.{site}",
                point=point,
                unit=unit,
                mode=spec.mode,
                spec=index,
                plan=self.plan.name,
                **fields,
            )
            return spec
        return None


# Module-level scope stack, same discipline as obs._RECORDERS: a
# plain list is enough because each process evaluates one work unit at
# a time, on one thread, so scopes never interleave.
_SCOPES: list[Injection] = []


def active() -> Injection | None:
    """The innermost active injection scope, or ``None``."""
    return _SCOPES[-1] if _SCOPES else None


@contextmanager
def injecting(
    plan: FaultPlan,
    *,
    point: int | None = None,
    unit: int | None = None,
    attempt: int | None = None,
) -> Iterator[Injection]:
    """Activate ``plan`` for the dynamic extent of the block."""
    scope = Injection(plan, point=point, unit=unit, attempt=attempt)
    _SCOPES.append(scope)
    try:
        yield scope
    finally:
        _SCOPES.pop()


def fire(
    site: str,
    *,
    point: int | None = None,
    unit: int | None = None,
    protocol: str | None = None,
    attempt: int | None = None,
    **fields: object,
) -> FaultSpec | None:
    """Module-level :meth:`Injection.fire`; ``None`` when no plan is active."""
    scope = active()
    if scope is None:
        return None
    return scope.fire(
        site,
        point=point,
        unit=unit,
        protocol=protocol,
        attempt=attempt,
        **fields,
    )
