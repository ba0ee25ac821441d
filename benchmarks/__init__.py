"""Benchmark package: one module per experiment (README.md, "Layout")."""
