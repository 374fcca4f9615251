"""Workloads: partition-aggregate requests and log-normal background flows."""
