"""Benchmark harness for `sfvs kernelize`; run it with `python3 perfbench/run.py`."""
