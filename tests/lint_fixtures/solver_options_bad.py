"""True-positive fixture for the cache-key-solver-options rule.

A ``_solver_signature`` frozen at its pre-protocol-zoo shape: it signs
the solver knobs but *omits* the protocol-specific
``preemption_thresholds`` and ``regulation`` fields. Injected over the
real ``repro.analysis.proposed.response_time`` module, it must make
the rule flag exactly those two fields — proving the lint catches the
omission that would let threshold/bandwidth analyses share cache
entries.
"""


class StaleSignatureAnalysis:
    def __init__(self, options, method="milp"):
        self.options = options
        self.method = method

    def _solver_signature(self) -> tuple:
        return (
            self.method,
            self.options.time_limit,
        )
