"""Benchmark for approxcat: cold-process workloads, end-to-end metrics and a
traced run with per-layer counts. Entry point: ``python3 perfbench/run.py``."""
