"""True-positive fixture for the cache-key-solver-options rule.

An ``AnalysisOptions`` that has lost its ``convergence_eps`` field
while ``EXEMPT_OPTION_FIELDS`` still exempts it. Injected over the real
``repro.analysis.interface`` module, it must make the rule flag exactly
that stale exemption: a removed option may not leave its exemption
behind.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class AnalysisOptions:
    max_iterations: int = 60
    stop_at_deadline: bool = True
    time_limit: float | None = None
    preemption_thresholds: tuple[tuple[str, int], ...] | None = None
    regulation: object = None
