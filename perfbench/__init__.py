"""Benchmark of the hypctrl CLI: see README.md."""
