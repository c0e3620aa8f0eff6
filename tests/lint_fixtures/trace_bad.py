"""True-positive fixture for the trace-contract rule.

Each function commits one distinct contract violation; the tests
inject this module into the real module mapping and assert every one
is found.
"""
from repro.obs import events as obs


def emits_unknown_event() -> None:
    obs.emit("fixture.unknown.event")


def emits_undeclared_payload_key() -> None:
    obs.emit("run.end", bogus_key=1)


def emits_wrong_literal_type() -> None:
    obs.emit("point.end", x="not-a-number", failures=0)
