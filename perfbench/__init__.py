"""Benchmark for the clearstream enhancement stack; run perfbench/run.py."""
