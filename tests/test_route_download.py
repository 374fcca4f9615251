"""One download for every control plane.

The paper's §V argument is that F²Tree's static backups work under any
control plane because each one only downloads routes into the FIB the
backups sit beneath.  Link-state, path-vector and centralized routing
all download through :meth:`repro.net.fib.FibDelta.between`: each agent
holds the table it last downloaded (``route_table``), and each download
is one :meth:`~repro.net.fib.Fib.apply_delta` batch — one generation
bump when routes change, none when they do not.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import build_bundle
from repro.routing import centralized, linkstate, pathvector
from repro.sim.units import seconds
from repro.topology.fattree import fat_tree

#: (control-plane module, its per-switch agent, the agent's download)
CONTROL_PLANES = [
    pytest.param(linkstate, linkstate.LinkStateProtocol, "_install_pending",
                 id="linkstate"),
    pytest.param(pathvector, pathvector.PathVectorProtocol, "_install_best",
                 id="pathvector"),
    pytest.param(centralized, centralized.CentralizedAgent, "_install_pending",
                 id="centralized"),
]


@pytest.mark.parametrize("plane, agent_class, download", CONTROL_PLANES)
def test_route_table_is_what_the_fib_holds_after_a_failure(
    plane, agent_class, download, monkeypatch
):
    """Through initial convergence and one rack-link failure on a k=4
    fat tree: every download that changes an agent's table bumps its
    FIB's generation exactly once, however many prefixes it changes, an
    unchanged one not at all, and once the network is quiet each agent's
    table is exactly its FIB entries of its source."""
    bumps = []
    original = getattr(agent_class, download)

    def counted(agent):
        fib = agent.switch.fib
        generation, table = fib.generation, agent.route_table
        original(agent)
        changed = agent.route_table != table
        bumps.append((changed, fib.generation - generation))

    monkeypatch.setattr(agent_class, download, counted)
    bundle = build_bundle(fat_tree(4), routing=plane.__name__.rpartition(".")[2])
    bundle.converge()
    bundle.network.fail_link("agg-0-0", "tor-0-0")
    bundle.sim.run(until=bundle.sim.now + seconds(5))

    assert sum(changed for changed, _ in bumps) > len(bundle.protocols)
    assert all(bump == int(changed) for changed, bump in bumps)
    for name, agent in sorted(bundle.protocols.items()):
        installed = {
            entry.prefix: entry.next_hops
            for entry in agent.switch.fib.entries()
            if entry.source == plane.SOURCE
        }
        assert agent.route_table == installed, name
    tor = bundle.protocols["tor-0-0"]
    assert all("agg-0-0" not in hops for hops in tor.route_table.values())
