"""HiGHS failure paths: presolve retry, status mapping, typed errors."""

import numpy as np
import pytest

import repro.milp.highs as highs_module
from repro.errors import (
    BackendUnavailableError,
    SolverError,
    SolverTimeoutError,
)
from repro.milp import HighsBackend, MilpModel, SolveStatus
from repro.milp.highs import _SCIPY_STATUS


def _model():
    m = MilpModel("probe")
    x = m.var("x", 0.0, 1.0, integer=True)
    y = m.var("y", 0.0, 2.0)
    m.add(x + y <= 2.0)
    m.maximize(x + y)
    return m


#: Options every HiGHS attempt carries, ladder rungs included.
_ZERO_GAP = {"mip_rel_gap": 0.0, "mip_abs_gap": 0.0}


class _FakeResult:
    def __init__(self, status, x=None, mip_dual_bound=None):
        self.status = status
        self.x = x
        self.mip_dual_bound = mip_dual_bound


def _patch_milp(monkeypatch, results):
    """Make scipy's milp return canned results, recording the options."""
    calls = []

    def fake_milp(c, constraints=None, bounds=None, integrality=None, options=None):
        calls.append(options or {})
        return results[min(len(calls), len(results)) - 1]

    monkeypatch.setattr(highs_module, "milp", fake_milp)
    return calls


class TestStatusMapping:
    def test_scipy_status_table(self):
        assert _SCIPY_STATUS == {
            0: SolveStatus.OPTIMAL,
            1: SolveStatus.TIME_LIMIT,
            2: SolveStatus.INFEASIBLE,
            3: SolveStatus.UNBOUNDED,
            4: SolveStatus.ERROR,
        }

    def test_infeasible_passes_through(self, monkeypatch):
        _patch_milp(monkeypatch, [_FakeResult(status=2)])
        solution = HighsBackend().solve(_model())
        assert solution.status is SolveStatus.INFEASIBLE

    def test_unknown_status_raises_backend_unavailable(self, monkeypatch):
        _patch_milp(monkeypatch, [_FakeResult(status=99)])
        with pytest.raises(BackendUnavailableError):
            HighsBackend().solve(_model())


class TestPresolveRetry:
    def test_status_4_retries_without_presolve(self, monkeypatch):
        calls = _patch_milp(
            monkeypatch,
            [
                _FakeResult(status=4),
                _FakeResult(status=0, x=np.array([1.0, 1.0])),
            ],
        )
        solution = HighsBackend().solve(_model())
        assert solution.status is SolveStatus.OPTIMAL
        assert len(calls) == 2
        assert calls[0].get("presolve") is None
        assert calls[1]["presolve"] is False

    def test_status_4_walks_the_full_option_ladder(self, monkeypatch):
        # presolve off, then tighter feasibility tolerance, then both.
        calls = _patch_milp(
            monkeypatch,
            [
                _FakeResult(status=4),
                _FakeResult(status=4),
                _FakeResult(status=4),
                _FakeResult(status=0, x=np.array([1.0, 1.0])),
            ],
        )
        solution = HighsBackend().solve(_model())
        assert solution.status is SolveStatus.OPTIMAL
        assert len(calls) == 4
        assert calls[1] == {**_ZERO_GAP, "presolve": False}
        assert calls[2] == {**_ZERO_GAP, "mip_feasibility_tolerance": 1e-7}
        assert calls[3] == {
            **_ZERO_GAP,
            "presolve": False,
            "mip_feasibility_tolerance": 1e-7,
        }

    def test_status_4_retries_are_traced(self, monkeypatch):
        from repro.obs import recording

        _patch_milp(
            monkeypatch,
            [
                _FakeResult(status=4),
                _FakeResult(status=0, x=np.array([1.0, 1.0])),
            ],
        )
        with recording() as recorder:
            HighsBackend().solve(_model())
        by_name = {}
        for event in recorder.events:
            by_name.setdefault(event["name"], []).append(event)
        assert len(by_name["highs.retry"]) == 1
        assert by_name["highs.retry"][0]["f"]["options"] == {"presolve": False}
        (solve,) = by_name["highs.solve"]
        assert solve["f"]["scipy_status"] == 0
        assert solve["f"]["rows"] == 1 and solve["f"]["vars"] == 2

    def test_exhausted_ladder_raises_with_model_stats(self, monkeypatch):
        calls = _patch_milp(monkeypatch, [_FakeResult(status=4)])
        with pytest.raises(BackendUnavailableError) as excinfo:
            HighsBackend().solve(_model())
        assert len(calls) == 4  # initial attempt + three ladder rungs
        message = str(excinfo.value)
        assert "rows=1" in message
        assert "vars=2" in message
        assert "elapsed=" in message
        assert "'probe'" in message


class TestTimeoutWithoutIncumbent:
    def test_status_1_with_no_x_raises_timeout(self, monkeypatch):
        _patch_milp(monkeypatch, [_FakeResult(status=1, x=None)])
        with pytest.raises(SolverTimeoutError) as excinfo:
            HighsBackend(time_limit=0.5).solve(_model())
        message = str(excinfo.value)
        assert "no incumbent" in message
        assert "rows=1" in message and "vars=2" in message

    def test_new_errors_are_solver_errors(self):
        assert issubclass(SolverTimeoutError, SolverError)
        assert issubclass(BackendUnavailableError, SolverError)
