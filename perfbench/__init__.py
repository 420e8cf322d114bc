"""Benchmark of the ddi inference pipeline; see ``perfbench/run.py``."""
