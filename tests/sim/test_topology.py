"""Unit tests for connectivity topology (partitions, link cuts, transitivity)."""

from repro.sim.topology import Topology


def make(n=4):
    return Topology(nodes=range(n))


def test_fully_connected_by_default():
    topo = make()
    for a in range(4):
        for b in range(4):
            assert topo.connected(a, b)


def test_partition_blocks_cross_component_traffic():
    topo = make()
    topo.partition({0, 1}, {2, 3})
    assert topo.connected(0, 1)
    assert topo.connected(2, 3)
    assert not topo.connected(0, 2)
    assert not topo.connected(3, 1)


def test_unmentioned_nodes_form_implicit_component():
    topo = Topology(nodes=range(5))
    topo.partition({0, 1})
    assert topo.connected(0, 1)
    assert topo.connected(2, 3)
    assert topo.connected(3, 4)
    assert not topo.connected(0, 2)


def test_heal_partition_restores_connectivity():
    topo = make()
    topo.partition({0}, {1, 2, 3})
    topo.heal_partition()
    assert topo.connected(0, 3)


def test_repartition_replaces_previous_partition():
    topo = make()
    topo.partition({0, 1}, {2, 3})
    topo.partition({0, 2}, {1, 3})
    assert topo.connected(0, 2)
    assert not topo.connected(0, 1)


def test_cut_link_symmetric_by_default():
    topo = make()
    topo.cut_link(0, 1)
    assert not topo.connected(0, 1)
    assert not topo.connected(1, 0)
    assert topo.connected(0, 2)


def test_cut_link_asymmetric():
    topo = make()
    topo.cut_link(0, 1, symmetric=False)
    assert not topo.connected(0, 1)
    assert topo.connected(1, 0)


def test_restore_link():
    topo = make()
    topo.cut_link(0, 1)
    topo.restore_link(0, 1)
    assert topo.connected(0, 1)


def test_restore_all_links():
    topo = make()
    topo.cut_link(0, 1)
    topo.cut_link(2, 3)
    topo.restore_all_links()
    assert topo.connected(0, 1)
    assert topo.connected(2, 3)


def test_cut_links_compose_with_partition():
    topo = make()
    topo.partition({0, 1, 2}, {3})
    topo.cut_link(0, 1)
    assert not topo.connected(0, 1)
    assert topo.connected(0, 2)
    topo.heal_partition()
    assert not topo.connected(0, 1)  # cut link survives the heal


def test_node_down_blocks_all_traffic():
    topo = make()
    topo.set_node_down(1)
    assert not topo.connected(0, 1)
    assert not topo.connected(1, 0)
    assert not topo.connected(1, 1)
    topo.set_node_down(1, down=False)
    assert topo.connected(0, 1)


def test_self_connectivity_when_up():
    topo = make()
    assert topo.connected(2, 2)


def test_component_members_requires_bidirectional_links():
    topo = make()
    topo.cut_link(0, 1, symmetric=False)
    members = topo.component_members(0)
    assert 1 not in members
    assert {0, 2, 3} <= members


def test_transitive_when_cleanly_partitioned():
    topo = make()
    assert topo.is_transitive()
    topo.partition({0, 1}, {2, 3})
    assert topo.is_transitive()


def test_non_transitive_with_selective_cut():
    # The WAN pattern from Section 4: servers 0 and 1 cannot talk, yet both
    # can talk to the client (node 2).
    topo = make(3)
    topo.cut_link(0, 1)
    assert topo.connected(0, 2)
    assert topo.connected(1, 2)
    assert not topo.connected(0, 1)
    assert not topo.is_transitive()


def test_remove_node_clears_its_state():
    topo = make()
    topo.cut_link(0, 1)
    topo.set_node_down(0)
    topo.remove_node(0)
    assert 0 not in topo.nodes
    topo.add_node(0)
    assert topo.connected(0, 1)  # old cut/down state was removed


def test_generation_bumps_on_changes():
    topo = make()
    g0 = topo.generation
    topo.partition({0}, {1, 2, 3})
    g1 = topo.generation
    topo.cut_link(1, 2)
    g2 = topo.generation
    assert g0 < g1 < g2


def test_snapshot_is_json_friendly():
    topo = make()
    topo.partition({0, 1}, {2, 3})
    topo.cut_link(0, 3)
    topo.set_node_down(2)
    snap = topo.snapshot()
    assert set(snap) == {"nodes", "down", "components", "cut_links"}
    assert snap["down"] == ["2"]


# every connectivity mutator, as (name, call); ``Network`` caches
# ``connected`` verdicts per generation, so a mutator that forgot to bump
# it would leave the network acting on the old connectivity
_MUTATORS = {
    "partition": lambda topo: topo.partition({0}, {1, 2, 3}),
    "heal_partition": lambda topo: topo.heal_partition(),
    "cut_link": lambda topo: topo.cut_link(1, 2),
    "restore_link": lambda topo: topo.restore_link(1, 2),
    "restore_all_links": lambda topo: topo.restore_all_links(),
    "set_node_down": lambda topo: topo.set_node_down(3),
    "remove_node": lambda topo: topo.remove_node(3),
}
#: the rest of the public surface: queries, and ``add_node`` (``connected``
#: never reads the node set, so a new node changes no verdict)
_NOT_MUTATORS = {
    "add_node", "nodes", "generation", "is_node_down", "connected",
    "component_members", "is_transitive", "snapshot",
}


def test_every_mutator_moves_the_generation():
    for name, mutate in _MUTATORS.items():
        topo = make()
        before = topo.generation
        mutate(topo)
        assert topo.generation > before, name


def test_the_mutator_list_is_complete():
    public = {name for name in vars(Topology) if not name.startswith("_")}
    assert public == set(_MUTATORS) | _NOT_MUTATORS
