"""Benchmark harness for cpsblotto; run it as ``python3 perfbench/run.py``."""
