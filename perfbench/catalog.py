"""The benchmark's workloads and metrics: the single source of BENCHMARK.json."""

from __future__ import annotations

RUN_SECONDS = 10

#: Workload name -> why it was chosen (one line each).
WORKLOADS = {
    "cold_fig2a": (
        "fixed seed-2020 fig2a corpus, U=0.2-0.5, 4 sets/point, 3 protocols, empty "
        "store: what a new figure costs; nearly all of it is HiGHS MILP solve time"
    ),
    "zoo_add_protocols": (
        "fixed seed-2020 fig2c corpus, U=0.3-0.9, store populated by the 3-protocol "
        "sweep, rerun with 5 protocols at jobs=2: per-key store reads, zoo analyses, "
        "pool dispatch"
    ),
    "served_repeat": (
        "closed loop of repeat submits of a seeded 200-unit fig2e sweep that the "
        "service's unit store answers whole: batch store reads, wire codec and merge"
    ),
}

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("verdicts_per_s", "1/s", "higher", 0.25),
    ("request_p50_s", "s", "lower", 0.25),
    ("request_p90_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit) of every per-layer metric of a traced run.
PER_LAYER = (
    ("generator.calls", "count"),
    ("generator.busy_s", "s"),
    ("milp.solve.calls", "count"),
    ("milp.solve.busy_s", "s"),
    ("milp.solve.max_s", "s"),
    ("milp.build.calls", "count"),
    ("milp.build.busy_s", "s"),
    ("milp.compile.calls", "count"),
    ("milp.compile.busy_s", "s"),
    ("milp.compile.reuse", "count"),
    ("milp.lp.calls", "count"),
    ("milp.lp.busy_s", "s"),
    ("screen.closed_form.calls", "count"),
    ("screen.closed_form.busy_s", "s"),
    ("screen.yield", "ratio"),
    ("analysis.verdicts", "count"),
    ("analysis.busy_s", "s"),
    ("analysis.self_s", "s"),
    ("analysis.nps_carry.busy_s", "s"),
    ("analysis.wasly.busy_s", "s"),
    ("analysis.proposed.busy_s", "s"),
    ("analysis.threshold.busy_s", "s"),
    ("analysis.regulated.busy_s", "s"),
    ("cache.get.calls", "count"),
    ("cache.get.busy_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("store.fetch.calls", "count"),
    ("store.fetch.busy_s", "s"),
    ("store.fetch_many.rows", "count"),
    ("store.fetch_many.busy_s", "s"),
    ("store.upsert.calls", "count"),
    ("store.upsert.busy_s", "s"),
    ("experiments.unit.busy_s", "s"),
    ("experiments.merge.busy_s", "s"),
    ("experiments.dispatch.idle_s", "s"),
    ("service.wire.encode.busy_s", "s"),
    ("service.wire.decode.busy_s", "s"),
    ("service.wire.bytes", "bytes"),
    ("service.coordinator.self_s", "s"),
    ("service.client.wait_s", "s"),
    ("count.milp_solves", "count"),
    ("count.lp_solves", "count"),
    ("count.cache_hits", "count"),
    ("count.cache_misses", "count"),
    ("count.persistent_hits", "count"),
    ("count.unit_store_hits", "count"),
    ("count.closed_form_screens", "count"),
    ("count.lp_screens", "count"),
    ("count.screened_out", "count"),
    ("count.milp_warm_starts", "count"),
    ("trace.overhead", "ratio"),
    ("trace.residual_s", "s"),
)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": _better(name)} for name, unit in PER_LAYER
        ],
    }


def _better(name: str) -> str:
    """Direction of a per-layer metric: less time and work, more reuse."""
    if name.endswith(("hit_ratio", ".reuse", "screen.yield", "persistent_hits",
                      "unit_store_hits", "cache_hits")):
        return "higher"
    return "lower"
