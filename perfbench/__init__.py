"""End-to-end and per-layer benchmark of the repro package.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig10-ensemble --seed 1 --seconds 20 --trace 0

``BENCHMARK.json`` at the checkout root names the workloads and the
metrics; :mod:`perfbench.run` is the entry point.
"""
