"""Fault plans: scripted fault sites × deterministic trigger predicates.

A :class:`FaultPlan` is a declarative script of faults to inject into a
run — "crash the solver once on point 2", "kill the worker evaluating
unit 1 every time it starts", "corrupt the second trace line". Plans
are plain frozen dataclasses, picklable (they cross process boundaries
to sweep workers) and serialisable to JSON (``repro figure --inject
plan.json``).

Determinism is the whole point: a spec's trigger is a pure predicate
over the injection context (sweep point, work unit, protocol, retry
attempt, per-scope hit counter), so the same plan against the same
configuration injects the same faults at the same places — in every
process, every run. The only stochastic knob, ``probability``, draws
from a generator seeded by ``(plan.seed, point, unit)``, which keeps
even probabilistic plans reproducible and bit-identical between
``--jobs 1`` and ``--jobs N``.

The plan layer only *decides* whether a site fires; the behaviour of a
fired fault (raise, return garbage, ``os._exit``, skip a rename) lives
at the instrumented call site — see :mod:`repro.faults.injection` for
the activation API and the site catalogue below for what each site
simulates.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.errors import FaultPlanError

#: Catalogue of fault sites and their modes; a spec's ``mode`` defaults
#: to the first entry. See the module docstrings of the instrumented
#: layers for exact semantics.
SITES: dict[str, tuple[str, ...]] = {
    # One HiGHS attempt inside HighsBackend.solve fails; the backend
    # moves on to the next rung of its option ladder, as on status 4:
    #   crash   -> the solver crashed
    #   timeout -> the attempt hung past its budget
    #   garbage -> the attempt answered with a non-finite objective
    "solver.fault": ("crash", "timeout", "garbage"),
    # The worker process evaluating a (point, unit) pair dies:
    #   exit  -> os._exit mid-unit (its connection drops; no cleanup runs)
    #   raise -> an unexpected non-Repro exception escapes the unit
    "worker.death": ("exit", "raise"),
    # One JSONL trace line is corrupted as it is written:
    #   truncate -> only a prefix of the line reaches the file
    #   garbage  -> a non-JSON line is written instead
    "trace.corrupt": ("truncate", "garbage"),
    # A filesystem call raises a transient OSError.
    "fs.error": ("oserror",),
    # A sweep-service worker's connection to the coordinator is cut
    # mid-unit (network partition, worker host reboot):
    #   drop -> the worker closes its socket and exits without sending
    #           the unit result; the coordinator must requeue the unit
    "service.disconnect": ("drop",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: a site plus a deterministic trigger.

    Attributes:
        site: Fault site name (a key of :data:`SITES`).
        mode: Site-specific variant; defaults to the site's first mode.
        point: Only fire at this sweep-point index (``None`` = any).
        unit: Only fire for this task-set index (``None`` = any).
        protocol: Only fire while evaluating this protocol.
        attempt: Only fire on this retry attempt of the unit (workers
            that died are requeued with an incremented attempt).
        after: Skip the first ``after`` otherwise-eligible hits of the
            current injection scope before firing.
        times: Fire at most this many times per injection scope
            (``None`` = unlimited). Work-unit sites get a fresh scope
            per unit — in every process — so the budget is per unit,
            which is what keeps ``--jobs 1`` and ``--jobs N`` behaviour
            identical; run-level sites (trace, fs) count
            across the whole run.
        probability: When set, an eligible hit fires with this
            probability, drawn from a generator seeded by
            ``(plan.seed, point, unit)`` — deterministic per scope.
    """

    site: str
    mode: str = ""
    point: int | None = None
    unit: int | None = None
    protocol: str | None = None
    attempt: int | None = None
    after: int = 0
    times: int | None = 1
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultPlanError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{sorted(SITES)}"
            )
        modes = SITES[self.site]
        if not self.mode:
            object.__setattr__(self, "mode", modes[0])
        elif self.mode not in modes:
            raise FaultPlanError(
                f"unknown mode {self.mode!r} for site {self.site!r}; "
                f"expected one of {list(modes)}"
            )
        if self.after < 0:
            raise FaultPlanError(f"after must be >= 0, got {self.after}")
        if self.times is not None and self.times < 1:
            raise FaultPlanError(
                f"times must be >= 1 or null, got {self.times}"
            )
        if self.probability is not None and not (
            0.0 < self.probability <= 1.0
        ):
            raise FaultPlanError(
                f"probability must be in (0, 1], got {self.probability}"
            )

    def matches(
        self,
        site: str,
        *,
        point: int | None = None,
        unit: int | None = None,
        protocol: str | None = None,
        attempt: int | None = None,
    ) -> bool:
        """Static predicate check, ignoring the ``after``/``times``
        counters (those are per-scope state, see
        :class:`repro.faults.injection.Injection`)."""
        if self.site != site:
            return False
        for want, have in (
            (self.point, point),
            (self.unit, unit),
            (self.protocol, protocol),
            (self.attempt, attempt),
        ):
            if want is not None and want != have:
                return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """An ordered script of :class:`FaultSpec` entries.

    Attributes:
        specs: The scripted faults, checked in order at every site hit;
            the first matching spec fires.
        seed: Seed mixed into the per-scope generator that decides
            probabilistic triggers.
        name: Free-form label, stamped into ``fault.*`` trace events.
    """

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0
    name: str = ""

    def matching(
        self,
        site: str,
        *,
        point: int | None = None,
        unit: int | None = None,
        protocol: str | None = None,
        attempt: int | None = None,
    ) -> FaultSpec | None:
        """First spec whose static predicate matches this context.

        Counter-free: used by the parent process to attribute a
        detected worker death to the plan (the worker's own buffered
        ``fault.*`` event dies with it)."""
        for spec in self.specs:
            if spec.matches(
                site, point=point, unit=unit, protocol=protocol,
                attempt=attempt,
            ):
                return spec
        return None

    def to_dict(self) -> dict:
        # All fields are serialised explicitly: ``None`` is meaningful
        # (``times: null`` = unlimited, which is not the default), so
        # dropping nulls would not round-trip.
        return {
            "name": self.name,
            "seed": self.seed,
            "specs": [dataclasses.asdict(spec) for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "FaultPlan":
        if not isinstance(raw, Mapping):
            raise FaultPlanError(
                f"fault plan must be an object, got {type(raw).__name__}"
            )
        specs_raw = raw.get("specs", [])
        if not isinstance(specs_raw, list):
            raise FaultPlanError("fault plan 'specs' must be a list")
        known = {f.name for f in dataclasses.fields(FaultSpec)}
        specs = []
        for index, entry in enumerate(specs_raw):
            if not isinstance(entry, Mapping):
                raise FaultPlanError(f"spec #{index} must be an object")
            extras = set(entry) - known
            if extras:
                raise FaultPlanError(
                    f"spec #{index} has unknown fields {sorted(extras)}"
                )
            try:
                specs.append(FaultSpec(**entry))
            except TypeError as exc:
                raise FaultPlanError(f"spec #{index}: {exc}") from exc
        seed = raw.get("seed", 0)
        name = raw.get("name", "")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise FaultPlanError(f"fault plan seed must be an int, got {seed!r}")
        if not isinstance(name, str):
            raise FaultPlanError("fault plan name must be a string")
        return cls(specs=tuple(specs), seed=seed, name=name)


def save_plan(plan: FaultPlan, path: str | Path) -> None:
    """Write a fault plan to a JSON file."""
    Path(path).write_text(json.dumps(plan.to_dict(), indent=2))


def load_plan(path: str | Path) -> FaultPlan:
    """Read a fault plan from a JSON file (``--inject plan.json``)."""
    path = Path(path)
    if not path.exists():
        raise FaultPlanError(f"fault plan not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"invalid fault plan JSON in {path}: {exc}") from exc
    return FaultPlan.from_dict(raw)
