"""Membership tests: bootstrap, crash, recovery, partitions, merges."""

from tests.gcs.conftest import GcsWorld


def test_bootstrap_converges_to_single_view(world3):
    world3.assert_single_view(expected_members={"s0", "s1", "s2"})
    world3.check_spec()


def test_bootstrap_five_daemons(world5):
    world5.assert_single_view(expected_members={f"s{i}" for i in range(5)})
    world5.check_spec()


def test_all_daemons_agree_on_sequencer(world3):
    sequencers = {d.config.sequencer for d in world3.daemons.values()}
    assert sequencers == {"s0"}


def test_crash_removes_member_from_view(world3):
    world3.daemons["s2"].crash()
    world3.settle()
    world3.assert_single_view(expected_members={"s0", "s1"})
    world3.check_spec()


def test_crash_of_sequencer_elects_new_view(world3):
    world3.daemons["s0"].crash()
    world3.settle()
    world3.assert_single_view(expected_members={"s1", "s2"})
    assert world3.daemons["s1"].config.sequencer == "s1"
    world3.check_spec()


def test_recovery_rejoins_view_with_new_incarnation(world3):
    world3.daemons["s1"].crash()
    world3.settle()
    world3.daemons["s1"].recover()
    world3.settle()
    world3.assert_single_view(expected_members={"s0", "s1", "s2"})
    assert world3.daemons["s1"].incarnation == 1
    world3.check_spec()


def test_recovered_daemon_matches_a_fresh_one(world3):
    """A crash erases everything but what DESIGN §6 lists as kept: right
    after recovery, a daemon that had joined a group and had a request in
    flight looks like a freshly built one, one view counter on."""
    daemon = world3.daemons["s1"]
    daemon.join("g")
    world3.run(0.5)
    assert daemon.my_groups() == {"g"} and daemon.dup_filter.snapshot()
    daemon.mcast("g", "in flight")
    assert daemon.pending.outstanding()
    view_counter = daemon.membership.view_counter
    daemon.crash()
    daemon.recover()

    fresh = GcsWorld(1).daemons["s0"]
    for d in (daemon, fresh):
        assert d.pending.outstanding() == []
        assert d.my_groups() == frozenset()
        assert d.dup_filter.snapshot() == fresh.dup_filter.snapshot()
        assert d.group_map.snapshot() == fresh.group_map.snapshot()
        assert len(d.holdback) == len(fresh.holdback) == 0
        assert not d.membership.forming
        assert d.fd.alive_peers() == frozenset()
    assert daemon.config.members == ("s1",)
    assert daemon.membership.view_counter == view_counter + 1


def test_partition_forms_two_views(world5):
    world5.network.topology.partition({"s0", "s1"}, {"s2", "s3", "s4"})
    world5.settle()
    side_a = {world5.daemons[n].config for n in ("s0", "s1")}
    side_b = {world5.daemons[n].config for n in ("s2", "s3", "s4")}
    assert len(side_a) == 1 and len(side_b) == 1
    assert set(side_a.pop().members) == {"s0", "s1"}
    assert set(side_b.pop().members) == {"s2", "s3", "s4"}
    world5.check_spec()


def test_merge_after_partition_heals(world5):
    world5.network.topology.partition({"s0", "s1"}, {"s2", "s3", "s4"})
    world5.settle()
    world5.network.topology.heal_partition()
    world5.settle()
    world5.assert_single_view(expected_members={f"s{i}" for i in range(5)})
    world5.check_spec()


def test_view_ids_strictly_increase_at_each_daemon(world5):
    world5.daemons["s4"].crash()
    world5.settle()
    world5.daemons["s4"].recover()
    world5.settle()
    world5.monitor.check_monotonic_views()


def test_total_crash_then_full_recovery(world3):
    for d in world3.daemons.values():
        d.crash()
    world3.settle()
    for d in world3.daemons.values():
        d.recover()
    world3.settle()
    world3.assert_single_view(expected_members={"s0", "s1", "s2"})
    world3.check_spec()


def test_cascading_crashes(world5):
    world5.daemons["s1"].crash()
    world5.run(0.2)
    world5.daemons["s3"].crash()
    world5.run(0.2)
    world5.daemons["s0"].crash()
    world5.settle()
    world5.assert_single_view(expected_members={"s2", "s4"})
    world5.check_spec()


def test_singleton_survivor(world3):
    world3.daemons["s0"].crash()
    world3.daemons["s1"].crash()
    world3.settle()
    config = world3.daemons["s2"].config
    assert set(config.members) == {"s2"}
    world3.check_spec()


def test_asymmetric_link_resolves_to_disjoint_views(world3):
    """With s0<->s1 fully cut but both talking to s2, membership still
    converges (to views reflecting who can reach whom) without deadlock."""
    world3.network.topology.cut_link("s0", "s1")
    world3.run(10.0)
    # s2 hears both, but any view containing both s0 and s1 cannot be
    # stably maintained; the protocol must keep all daemons live and in
    # *some* view containing themselves.
    for node, daemon in world3.daemons.items():
        assert daemon.is_up()
        assert node in daemon.config
    world3.monitor.check_monotonic_views()
    world3.monitor.check_self_inclusion()


def test_repartition_while_forming():
    """Connectivity flaps faster than formation completes; the protocol
    must neither crash nor violate safety, and must converge once stable."""
    world = GcsWorld(4)
    world.run(1.0)
    for i in range(6):
        if i % 2 == 0:
            world.network.topology.partition({"s0", "s1"}, {"s2", "s3"})
        else:
            world.network.topology.heal_partition()
        world.run(0.31)
    world.network.topology.heal_partition()
    world.settle()
    world.run(3.0)
    world.assert_single_view(expected_members={"s0", "s1", "s2", "s3"})
    world.check_spec()
