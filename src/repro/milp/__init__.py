"""A small mixed-integer linear programming modelling layer.

The paper solves its worst-case-delay formulation with IBM CPLEX; this
package provides the equivalent building blocks on software available
offline: a modelling API (:class:`MilpModel`, :class:`Var`,
:class:`LinExpr`) and two exact backends — SciPy's HiGHS wrapper
(:class:`HighsBackend`) and a pure-Python branch-and-bound over LP
relaxations (:class:`BranchBoundBackend`) used to cross-validate HiGHS
on small instances.
"""

from repro.milp.audit import AuditIssue, AuditReport, audit_model
from repro.milp.expr import Constraint, LinExpr, Var
from repro.milp.model import MilpModel
from repro.milp.solution import DegradationLevel, MilpSolution, SolveStatus
from repro.milp.highs import HighsBackend
from repro.milp.branch_bound import BranchBoundBackend
from repro.milp.relaxation import LpRelaxationBackend

__all__ = [
    "AuditIssue",
    "AuditReport",
    "audit_model",
    "DegradationLevel",
    "LpRelaxationBackend",
    "Var",
    "LinExpr",
    "Constraint",
    "MilpModel",
    "MilpSolution",
    "SolveStatus",
    "HighsBackend",
    "BranchBoundBackend",
]
