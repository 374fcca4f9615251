"""Failure machinery: deterministic injection, random processes, scenarios."""
