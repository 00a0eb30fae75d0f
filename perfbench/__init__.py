"""Gateway scan benchmark for the ``repro cluster`` production stack.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
boots the cluster as a subprocess, drives one closed-loop workload and
prints one JSON result line; see ``BENCHMARK.json`` at the repository
root for the workloads and metrics.
"""
