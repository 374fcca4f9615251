"""Transport layer: UDP probe apps and a compact TCP implementation."""
