"""Benchmark of the ecostor simulator; see ``README.md`` and ``run.py``."""
