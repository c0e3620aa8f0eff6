"""The Lagrangian chain bound against the delay MILP it relaxes.

``DelayChain.solve`` must upper-bound the MILP optimum at every
non-negative multiplier (weak duality), and every schedule
``DelayChain.repair`` returns must be a feasible assignment of the built
MILP with the chain's value as its objective. Together these tie
``chain.py`` to ``formulation.py``: a rule the chain drops shows up as a
bound below the optimum or a schedule the MILP rejects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.proposed import ProposedAnalysis
from repro.analysis.proposed.chain import DelayChain, Occupant, Schedule, decide
from repro.analysis.proposed.formulation import AnalysisMode, build_delay_milp
from repro.analysis.proposed.response_time import _window
from repro.analysis.wasly import WaslyAnalysis
from repro.generator.taskset_gen import GenerationConfig, generate_tasksets
from repro.milp import HighsBackend
from repro.obs import recording

#: ``(n, U, seed, LS task indices, carry refinement)`` cells: the
#: target-stop tests' matrix, plus LS marks on the highest- and
#: lowest-priority tasks (urgent executions and cancellations inside the
#: chain) with and without the carry refinement.
_CELLS = (
    (4, 0.4, 11, (), False),
    (4, 0.5, 12, (), False),
    (4, 0.4, 11, (-1,), False),
    (4, 0.4, 11, (0, -1), False),
    (4, 0.4, 11, (0, 2), True),
)

#: HiGHS's MIP feasibility tolerance per row: its zero-gap incumbent may
#: exceed the true optimum by about this much per interval.
_HIGHS_TOL = 1e-6


def _tasksets(cells=_CELLS):
    for n, utilization, seed, ls, carry in cells:
        config = GenerationConfig(n=n, utilization=utilization, gamma=0.3)
        for taskset in generate_tasksets(config, count=3, seed=seed):
            names = [taskset[i].name for i in ls]
            yield taskset.with_ls_marks(names), carry


def _models():
    """Every windowed model at ``t_D`` of the cells: the task's own mode,
    and WASLY where no LS mark changes the set (WASLY ignores marks)."""
    for taskset, carry in _tasksets():
        analysis = ProposedAnalysis(carry_refinement=carry)
        for task in taskset:
            hp_wcrt = analysis._hp_wcrt_map(taskset, task)
            window = _window(task, task.deadline)
            modes = [
                AnalysisMode.LS_CASE_A
                if task.latency_sensitive
                else AnalysisMode.NLS
            ]
            if not taskset.ls_tasks:
                modes.append(AnalysisMode.WASLY)
            for mode in modes:
                yield taskset, task, window, mode, hp_wcrt


@pytest.fixture(scope="module")
def solved():
    """``(chain, built, HiGHS zero-gap optimum)`` per model."""
    out = []
    for taskset, task, window, mode, hp_wcrt in _models():
        built = build_delay_milp(taskset, task, window, mode, hp_wcrt=hp_wcrt)
        optimum = built.model.solve(HighsBackend()).objective
        chain = DelayChain(taskset, task, window, mode, hp_wcrt)
        out.append((chain, built, optimum))
    return out


def _multipliers(chain: DelayChain, rng: np.random.Generator):
    """Zero multipliers, then seeded random ones."""
    yield np.zeros(len(chain.hp)), 0.0
    for _ in range(6):
        scale = rng.choice([0.1, 1.0, 10.0])
        yield rng.uniform(0.0, scale, len(chain.hp)), float(rng.uniform(0.0, scale))


def _assignment(built, chain: DelayChain, schedule: Schedule) -> np.ndarray:
    """The full MILP assignment of a chain schedule.

    Binaries follow the schedule (``E``/``LE`` per occupant, ``CL`` per
    cancelled copy-in); each interval's sides are its occupant's
    execution, the previous occupant's copy-out and the next occupant's
    or the cancelled copy-in, with the fixed ends of Constraint 12. A
    variable the model does not have raises ``KeyError``.
    """
    index = {var.name: var.index for var in built.model.variables}
    x = np.zeros(len(index))

    def put(name: str, value: float) -> None:
        x[index[name]] = value

    task, n = chain.task, built.num_intervals
    occupants = schedule.occupants
    for k, occupant in enumerate(occupants):
        if occupant is not None:
            kind = "LE" if occupant.urgent else "E"
            put(f"{kind}[{k},{occupant.task.name}]", 1.0)
    for k, victim in enumerate(schedule.cancelled):
        if victim is not None:
            put(f"CL[{k},{victim.name}]", 1.0)
    tasks = list(chain.tasks)
    for k in range(n):
        if k == n - 1:
            cpu, cin = task.exec_time, max(t.copy_in for t in tasks)
        else:
            occupant = occupants[k]
            cpu = 0.0 if occupant is None else (
                occupant.task.exec_time
                + occupant.task.copy_in * occupant.urgent
            )
            if k == n - 2:
                cin = task.copy_in
            elif schedule.cancelled[k] is not None:
                cin = schedule.cancelled[k].copy_in
            elif occupants[k + 1] is not None and not occupants[k + 1].urgent:
                cin = occupants[k + 1].task.copy_in
            else:
                cin = 0.0
        if k == 0:
            cout = max(t.copy_out for t in tasks)
        else:
            previous = occupants[k - 1]
            cout = 0.0 if previous is None else previous.task.copy_out
        put(f"De[{k}]", cpu)
        put(f"Dl[{k}]", cin)
        put(f"Du[{k}]", cout)
        put(f"alpha[{k}]", 1.0 if cin + cout > cpu else 0.0)
        put(f"D[{k}]", max(cpu, cin + cout))
    return x


def _violations(built, x: np.ndarray) -> list[str]:
    """Rows and variable bounds ``x`` breaks, by name."""
    compiled = built.model.compile()
    broken = [c.name for c in built.model.check_assignment(x, tol=1e-9)]
    for var in compiled.variables:
        value = x[var.index]
        if not var.lower - 1e-9 <= value <= var.upper + 1e-9:
            broken.append(var.name)
        if var.integer and value != round(value):
            broken.append(var.name)
    return broken


def _objective(built, x: np.ndarray) -> float:
    compiled = built.model.compile()
    return float(compiled.objective @ x) + compiled.objective_constant


class TestWeakDuality:
    def test_every_multiplier_bounds_the_highs_optimum(self, solved):
        rng = np.random.default_rng(2027)
        modes = set()
        for chain, built, optimum in solved:
            assert chain.n == built.num_intervals
            for lam, mu in _multipliers(chain, rng):
                bound, _ = chain.solve(lam, mu)
                assert bound >= optimum - _HIGHS_TOL * chain.n, (
                    built.model.name, lam, mu, bound, optimum,
                )
            modes.add(built.mode)
        assert modes == {
            AnalysisMode.NLS, AnalysisMode.LS_CASE_A, AnalysisMode.WASLY
        }

    def test_zero_multipliers_bound_the_path_they_return(self, solved):
        # The bound at zero multipliers is the chain's own best path.
        for chain, _, _ in solved:
            bound, path = chain.solve(np.zeros(len(chain.hp)), 0.0)
            assert bound == pytest.approx(path.value, abs=1e-9)


class TestPrimal:
    def test_repaired_schedules_are_milp_assignments(self, solved):
        rng = np.random.default_rng(2028)
        urgent = cancelled = repaired = 0
        for chain, built, optimum in solved:
            for lam, mu in _multipliers(chain, rng):
                _, path = chain.solve(lam, mu)
                schedule = chain.repair(path)
                repaired += schedule != path
                x = _assignment(built, chain, schedule)
                label = (built.model.name, schedule)
                assert _violations(built, x) == [], label
                assert _objective(built, x) == pytest.approx(
                    schedule.value, abs=1e-9
                ), label
                assert schedule.value <= optimum + _HIGHS_TOL * chain.n
                urgent += any(o is not None and o.urgent for o in schedule.occupants)
                cancelled += any(v is not None for v in schedule.cancelled)
        # The corpus exercises the rules the chain must keep.
        assert urgent and cancelled and repaired

    def test_the_check_catches_an_unlicensed_urgent_execution(self, solved):
        # Drop the cancellation before an urgent execution (C8).
        rng = np.random.default_rng(2029)
        for chain, built, _ in solved:
            for lam, mu in _multipliers(chain, rng):
                schedule = chain.repair(chain.solve(lam, mu)[1])
                for k, victim in enumerate(schedule.cancelled):
                    licensee = schedule.occupants[k + 1]
                    if victim is None or licensee is None or not licensee.urgent:
                        continue
                    cancelled = list(schedule.cancelled)
                    cancelled[k] = None
                    broken = schedule._replace(cancelled=tuple(cancelled))
                    x = _assignment(built, chain, broken)
                    assert f"C8[{k},{licensee.task.name}]" in _violations(built, x)
                    return
        pytest.fail("no urgent execution in the corpus")

    def test_the_check_catches_a_late_lower_priority_execution(self, solved):
        # A lower-priority task past the first intervals (C3/C14) has no
        # variable in the MILP.
        for chain, built, _ in solved:
            lp = [
                t for t in chain.tasks
                if t.priority > chain.task.priority
            ]
            if not lp or chain.n < 4:
                continue
            schedule = chain.repair(chain.solve(np.zeros(len(chain.hp)), 0.0)[1])
            occupants = list(schedule.occupants)
            occupants[2] = Occupant(lp[0], False)
            with pytest.raises(KeyError):
                _assignment(built, chain, schedule._replace(occupants=tuple(occupants)))
            return
        pytest.fail("no lower-priority task in the corpus")


class TestDecide:
    def test_outcomes_agree_with_the_optimum(self, solved):
        outcomes = set()
        for chain, built, optimum in solved:
            # Below the optimum only a stop may answer; above it only a
            # proof.
            low = decide(chain, optimum - 1e-3, optimum - 1e-3)
            assert low.outcome in ("stop", "give_up"), built.model.name
            if low.outcome == "stop":
                assert low.value <= optimum + _HIGHS_TOL * chain.n
            high = decide(chain, optimum + 1e-3, optimum + 1e-3)
            assert high.outcome in ("proof", "give_up"), built.model.name
            if high.outcome == "proof":
                assert high.value >= optimum - _HIGHS_TOL * chain.n
            outcomes.update((low.outcome, high.outcome))
        assert outcomes == {"proof", "stop", "give_up"}


#: Cells whose probes end in each of the chain's three outcomes.
_PROBE_CELLS = ((4, 0.4, 11, (), False), (4, 0.4, 40, (), False))


@pytest.mark.parametrize("analysis_cls", [ProposedAnalysis, WaslyAnalysis])
def test_each_outcome_decides_the_probe_and_is_memoised(analysis_cls):
    seen = set()
    for taskset, _ in _tasksets(_PROBE_CELLS):
        for task in taskset:
            cache = AnalysisCache()
            analysis = analysis_cls(cache=cache)
            with recording() as recorder:
                verdict = analysis.verdict(taskset, task)
            events = [e for e in recorder.events if e["name"] == "chain.bound"]
            assert len(events) <= 1
            if not events:
                continue
            outcome = events[0]["f"]["outcome"]
            seen.add(outcome)
            counters = dict(cache.counters)
            if outcome == "proof":
                # Proved before HiGHS was called.
                assert verdict and counters.get("milp_solves", 0) == 0
                assert counters["chain_proofs"] == 1
            elif outcome == "stop":
                # Disproved at t_D: the fixpoint decides with step targets.
                assert counters["chain_stops"] == 1
                assert "milp_cutoff_proofs" not in counters
            else:
                # HiGHS probes as before.
                assert counters.get("milp_cutoff_proofs", 0) + counters.get(
                    "milp_target_stops", 0
                ) >= 1
                assert "chain_proofs" not in counters
                assert "chain_stops" not in counters
            # A re-verdict in the same scope reads the memo: no chain
            # work and no solve.
            with recording() as again:
                assert analysis.verdict(taskset, task) == verdict
            assert not [e for e in again.events if e["name"] == "chain.bound"]
            for name in ("milp_solves", "chain_proofs", "chain_stops"):
                assert cache.counters.get(name, 0) == counters.get(name, 0)
    assert seen == {"proof", "stop", "give_up"}
