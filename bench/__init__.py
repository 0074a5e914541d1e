"""End-to-end benchmark of the reproduction: figures, sweeps and ``/assign``.

Run ``python -m bench --help``; ``bench/README.md`` explains the workloads,
the metrics and how to compare two sets of runs.
"""
