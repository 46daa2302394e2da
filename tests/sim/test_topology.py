"""Unit tests for the link model (partitions, link cuts, transitivity,
delay spikes and adversity)."""

import json

import pytest

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


def test_snapshot_is_json_friendly():
    topo = make()
    topo.partition({0, 1}, {2, 3})
    topo.cut_link(0, 3)
    topo.set_node_down(2)
    topo.set_link_delay(1, 2, 0.25, symmetric=False)
    snap = topo.snapshot()
    assert set(snap) == {
        "nodes", "down", "components", "cut_links", "link_delays",
        "duplicate_probability", "reorder_probability", "reorder_window",
    }
    assert snap["down"] == ["2"]
    assert snap["link_delays"] == [("1", "2", 0.25)]
    assert json.loads(json.dumps(snap))["cut_links"] == [["0", "3"], ["3", "0"]]


# every connectivity mutator, as (name, call); ``Network.send`` and
# ``FaultyTransport.send`` read ``Topology.link`` records, so a mutator
# that forgot to refresh them would leave both runtimes acting on the old
# connectivity
_MUTATORS = {
    "partition": lambda topo: topo.partition({0}, {1, 2, 3}),
    "heal_partition": lambda topo: topo.heal_partition(),
    "cut_link": lambda topo: topo.cut_link(1, 2),
    "restore_link": lambda topo: topo.restore_link(1, 2),
    "restore_all_links": lambda topo: topo.restore_all_links(),
    "set_node_down": lambda topo: topo.set_node_down(3),
    "remove_node": lambda topo: topo.remove_node(3),
    "clear_all": lambda topo: topo.clear_all(),
}
#: the rest of the public surface: queries, ``add_node`` (``connected``
#: never reads the node set, so a new node changes no verdict), and the
#: latency and adversity setters, which never touch reachability
_NOT_MUTATORS = {
    "add_node", "nodes", "is_node_down", "connected", "link",
    "component_members", "is_transitive", "snapshot", "set_link_delay",
    "clear_link_delay", "refuse_adversity", "set_duplication", "set_reordering",
}


def test_every_mutator_refreshes_the_link_records():
    for name, mutate in _MUTATORS.items():
        topo = make()
        topo.partition({0, 1, 2}, {3})
        topo.cut_link(0, 1, symmetric=False)
        records = {(a, b): topo.link(a, b) for a in range(4) for b in range(4)}
        mutate(topo)
        for (a, b), record in records.items():
            if (a, b) in topo.links:  # remove_node drops the node's records
                assert record.connected == topo.connected(a, b), (name, a, b)


def test_the_mutator_list_is_complete():
    public = {name for name in vars(Topology) if not name.startswith("_")}
    assert public == set(_MUTATORS) | _NOT_MUTATORS


def test_adversity_setters_validate_before_changing_anything():
    topo = make()
    for bad in (
        lambda: topo.set_duplication(1.0),
        lambda: topo.set_reordering(-0.1),
        lambda: topo.set_reordering(0.1, window=float("inf")),
        lambda: topo.set_link_delay(0, 1, float("nan")),
        lambda: topo.set_link_delay(0, 1, -1.0),
    ):
        before = topo.snapshot()
        with pytest.raises(ValueError):
            bad()
        assert topo.snapshot() == before
