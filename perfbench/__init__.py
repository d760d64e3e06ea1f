"""Benchmark of the reproduction: workloads, calibrated timing, tracing."""
