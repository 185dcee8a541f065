"""Workloads, checks and tracing of the benchmark harness."""
