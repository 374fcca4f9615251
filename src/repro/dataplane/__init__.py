"""Data plane: runtime links, L3 switches, hosts and the network container."""
