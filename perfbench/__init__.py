"""Benchmark of the ``wstack`` imaging pipeline; ``run.py`` is the entry point."""
