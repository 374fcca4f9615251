"""Measurement layer: throughput/connectivity/collapse and request metrics."""
