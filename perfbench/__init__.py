"""The repository benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload plan-fig1 --seed 1 --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
traced run attributes time to layers.
"""
