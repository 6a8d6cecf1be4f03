"""Layered benchmark for ``onlinevi run`` and ``onlinevi bounds``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload through the real command line in fresh processes,
checks every output, and prints its metrics; the last line of standard
output is one JSON object.  ``BENCHMARK.json`` at the repository root
declares the workloads and metrics.  See ``perfbench/README.md``.
"""
