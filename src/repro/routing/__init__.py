"""Control planes: link-state (OSPF stand-in), path-vector (BGP stand-in),
centralized (SDN stand-in), plus SPF and static routes."""
