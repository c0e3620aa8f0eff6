"""End-to-end and per-layer benchmark of the schedulability sweep engine.

Run it from the repository root::

    python3 perfbench/run.py --workload cold_fig2a --seed 2020 --seconds 10 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and predictions.
"""
