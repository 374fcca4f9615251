"""Network-layer substrate: IPv4 model, FIB, packets, ECMP hashing."""
