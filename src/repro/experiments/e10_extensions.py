"""E10 — the paper's future-work extensions, implemented and measured.

(a) Replicated state machine for shared content updates (Section 5 /
    [Schneider 1990]): concurrent content updates from several servers
    must leave all replicas identical, across crashes and rejoins.

(b) Availability manager ([Mishra-Pang 1999]-style): "the user might
    express a desired service quality in terms of a chance of losing a
    context update, and the system could then adjust the needed number of
    backups in each session group."  We table the backup count the
    manager derives for a range of quality targets and failure rates, and
    the analytically achieved loss probability.
"""

from __future__ import annotations

from repro.analysis.availability import context_loss_probability
from repro.core.manager import backups_for_target, period_for_target
from repro.core.statemachine import ReplicatedStateMachine
from repro.metrics.report import Table
from repro.gcs.settings import GcsSettings
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency
from repro.sim.network import Network
from repro.sim.topology import Topology


class _RsmHost:
    """Minimal GcsApplication hosting one replicated state machine."""

    def __init__(self, daemon, group):
        self.daemon = daemon
        self.rsm = ReplicatedStateMachine(
            daemon, group, initial={}, apply_fn=self._apply
        )

    @staticmethod
    def _apply(state, op):
        key, value = op
        new_state = dict(state)
        new_state[key] = value
        return new_state

    def on_config_view(self, config):
        pass

    def on_group_view(self, view):
        if view.group == self.rsm.group:
            self.rsm.on_group_view(view)

    def on_group_message(self, group, origin, payload, seq):
        if group == self.rsm.group:
            self.rsm.on_group_message(payload)

    def on_ptp(self, sender, payload):
        pass


def _rsm_world(n_daemons: int):
    from repro.gcs.daemon import GcsDaemon

    sim = Simulator()
    network = Network(sim, Topology(), FixedLatency(0.002))
    names = [f"s{i}" for i in range(n_daemons)]
    hosts = {}
    for name in names:
        daemon = GcsDaemon(name, network, world=names, settings=GcsSettings())
        host = _RsmHost(daemon, "content-updates")
        daemon.app = host
        daemon.start()
        hosts[name] = host
    sim.run_until(3.0)
    for host in hosts.values():
        host.daemon.join("content-updates")
    sim.run_until(4.0)
    return sim, hosts


def _rsm_experiment(seed: int, fast: bool) -> Table:
    n_updates = 10 if fast else 40
    sim, hosts = _rsm_world(3)
    names = sorted(hosts)
    # concurrent updates from all three replicas
    for index in range(n_updates):
        origin = hosts[names[index % 3]]
        origin.rsm.submit((f"k{index % 7}", index))
    sim.run_until(sim.now + 3.0)
    states_before = {n: dict(hosts[n].rsm.state) for n in names}
    # crash one replica mid-stream, keep updating, recover, check resync
    hosts[names[2]].daemon.crash()
    sim.run_until(sim.now + 2.0)
    for index in range(n_updates, n_updates + 10):
        hosts[names[0]].rsm.submit((f"k{index % 7}", index))
    sim.run_until(sim.now + 2.0)
    hosts[names[2]].daemon.recover()
    sim.run_until(sim.now + 2.0)
    hosts[names[2]].daemon.join("content-updates")
    sim.run_until(sim.now + 4.0)
    states_after = {n: dict(hosts[n].rsm.state) for n in names}

    table = Table(
        title="E10a: replicated state machine for shared content updates",
        columns=["check", "result"],
    )
    identical_before = len({str(sorted(s.items())) for s in states_before.values()}) == 1
    table.add_row("replicas identical after concurrent updates", identical_before)
    survivors_same = str(sorted(states_after[names[0]].items())) == str(
        sorted(states_after[names[1]].items())
    )
    table.add_row("survivors identical across crash", survivors_same)
    rejoined_same = str(sorted(states_after[names[2]].items())) == str(
        sorted(states_after[names[0]].items())
    )
    table.add_row("rejoined replica state-transferred to match", rejoined_same)
    table.add_row(
        "commands applied at s0", hosts[names[0]].rsm.applied_count
    )
    return table


def _manager_experiment() -> Table:
    table = Table(
        title="E10b: availability manager — target loss -> derived parameters",
        columns=[
            "target_loss",
            "failure_rate",
            "period_s",
            "backups_chosen",
            "achieved_loss",
            "max_period_for_b1",
        ],
    )
    for target in (1e-1, 1e-2, 1e-3, 1e-4):
        for rate in (0.01, 0.1):
            period = 0.5
            backups = backups_for_target(target, rate, period)
            achieved = context_loss_probability(rate, period, backups + 1)
            table.add_row(
                target,
                rate,
                period,
                backups,
                achieved,
                period_for_target(target, rate, num_backups=1),
            )
    table.add_note(
        "the paper's future-work loop: quality target in, session-group "
        "size (and affordable propagation period) out"
    )
    return table


def run(seed: int = 0, fast: bool = False) -> list[Table]:
    return [_rsm_experiment(seed, fast), _manager_experiment()]
