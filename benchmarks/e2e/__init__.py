"""End-to-end benchmark of the PoocH reproduction (see README.md).

``python -m benchmarks.e2e run`` times five workloads, each in its own
process, through the library's public entry points only; ``compare`` turns
two result documents into per-(workload, metric) verdicts using the bounds
in ``BENCHMARK.json``.
"""
