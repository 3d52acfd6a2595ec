"""Benchmark harness of the picardfuchs pipeline: inputs, workloads, tracing, checks."""
