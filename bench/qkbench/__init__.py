"""Benchmark harness for the qkoopman package; entry point ``bench/run.py``."""
