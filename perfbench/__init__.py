"""Benchmark of geomlim: workloads, output checks and tracing."""
