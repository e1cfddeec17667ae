"""Benchmark of the standout package; see bench/README.md."""
