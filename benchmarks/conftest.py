"""Pytest configuration for the benchmark harness.

Benchmarks print the regenerated tables/figures to stdout, so ``-s`` is the
recommended invocation::

    PYTHONPATH=src:benchmarks python -m pytest benchmarks/ -s
"""
