"""Determinism anchors: fixed-seed trace digests, pinned in full.

Same seed, same schedule, *same run*: a refactor of the protocol stack
must leave every digest here untouched.  A change to protocol *timing*
or to what is sent moves them — re-pin the moved ones and say why in
CHANGES.md; the fault-free ``empty`` runs only move when steady-state
behaviour changed, which is a finding in itself.

Recorded at PR 21 (``ef3619a``), before PR 22 moved the detector wiring
behind ``repro.gcs.detector`` and the partition-amnesia plant into
``repro.chaos``; the heartbeat ``empty``/``mixed`` pair is the one
``benchmarks/bench_sim_kernel.py`` carried since PR 16.

The exact counts beside each digest (events executed, messages sent and
dropped, trace records) and the WAN anchor — the only run on
``LogNormalLatency`` — were recorded at PR 22 (``b508c6f``), before PR 23
hoisted the per-message work out of the simulated message path: "the
same simulation" is these numbers, not only the hash.

The propagation counts were recorded when each propagation began to ship
whichever form the codec prices smaller.  The digests did not move (the
trace records that a propagation was multicast, not its form); before,
the six runs then pinned (the three below under each of two failure
detectors) and the WAN run sent 144/144/135/134/252/254/17 deltas,
52 560/52 560/45 317/45 509/66 066/59 150/4 952 bytes, and the ``plant``
runs counted 25 (gossip) and 4 (heartbeat) delta gaps.

The liveness census (``_LIVENESS``) counts where the runs' heartbeats go; it explains why heartbeats are half of every chaos seed's
sends (ROADMAP item 19).

The retained holdback entries (the last count) were added when the
holdback began to be pruned at the stable point its members report rather
than 4096 messages back.  No digest or other count moved; the same runs
used to end holding 561/561/285/285/326/437 entries (in the order above)
and the WAN run 48.

These runs used to be pinned under each of two failure detectors; the
SWIM gossip detector's three were removed with it.  Ending a wait for a
coordinator at the next install (ROADMAP 2(e)/2(f)) moved none of the
runs here.
"""

import math

import numpy as np
import pytest

from repro.chaos import ChaosConfig
from repro.chaos.generator import generate_schedule, resolve_profile
from repro.chaos.runner import run_schedule, trace_digest
from repro.faults.schedule import FaultSchedule
from repro.sim.network import Network
from tests.core.test_wan_deployment import make_wan_cluster

_MIXED = ChaosConfig(n_servers=3, n_sessions=2, duration=8.0, profile="mixed")
_PLANTED = ChaosConfig(
    n_servers=4,
    n_sessions=2,
    duration=8.0,
    profile="partitions",
    plant="partition-amnesia",
)

_ANCHORS = {
    "empty": "9c2636d6a046ca70d2869d4a5f9cdd98d386eb9643bec7f4e706996811b8d55b",
    "mixed": "67a712360adaec31afb6e7a7b23ce7a411f3eb2a4fed65bce54d637567314b7c",
    "plant": "11a8b48f884938e49a61307dc72c0879b78318667ac8165f1d91b604123443ad",
}

#: (sim.executed_events, network.total_sent, network.total_dropped,
#: len(trace_log()), holdback entries the servers retain at the end) of
#: each anchored run
_COUNTS = {
    "empty": (3455, 2139, 0, 2150, 6),
    "mixed": (3196, 1946, 54, 2016, 6),
    "plant": (5504, 3616, 168, 3674, 6),
}

#: (propagations_sent, propagations_delta, propagation_delta_gaps,
#: propagation_bytes_processed) summed over the servers of each anchored run
_PROPAGATION = {
    "empty": (166, 0, 0, 47808),
    "mixed": (161, 0, 0, 41472),
    "plant": (294, 3, 0, 54336),
}

#: the liveness census: (heartbeats sent, heartbeats
#: per daemon per simulated second, heartbeats on an idle link — to a peer
#: the sender had sent no other frame within the previous heartbeat
#: interval, so no piggybacked header could have stood in for them)
_LIVENESS = {
    "empty": (891, 12.375, 891),
    "mixed": (792, 11.0, 786),
}

_WAN_DIGEST = "baa0c20990024d1dfea5366b6f530e0c55c56f04feb0400ffe4ac65fdad77fe4"
_WAN_COUNTS = (1018, 628, 60, 638, 3)
_WAN_PROPAGATION = (20, 0, 0, 4512)


#: run -> (config, run seed, generator seed; None: the empty schedule)
_RUNS = {
    "empty": (_MIXED, 42, None),
    "mixed": (_MIXED, 1234, 7),
    "plant": (_PLANTED, 8, 8),
}


def _run(run: str):
    config, seed, gen_seed = _RUNS[run]
    schedule = FaultSchedule(events=[])
    if gen_seed is not None:
        schedule = generate_schedule(
            np.random.default_rng([gen_seed, 0]), config, resolve_profile(config, 0)
        )
    return run_schedule(config, seed, schedule, keep_cluster=True)


def _counts(cluster):
    network = cluster.network
    return (
        cluster.sim.executed_events,
        network.total_sent,
        network.total_dropped,
        len(cluster.trace_log()),
        sum(len(s.daemon.holdback) for s in cluster.servers.values()),
    )


def _propagation(cluster):
    keys = (
        "propagations_sent",
        "propagations_delta",
        "propagation_delta_gaps",
        "propagation_bytes_processed",
    )
    servers = cluster.servers.values()
    return tuple(sum(s.counters[key] for s in servers) for key in keys)


@pytest.mark.parametrize("run", sorted(_ANCHORS))
def test_trace_digest_anchor(run):
    result, observation = _run(run)
    assert result.digest == _ANCHORS[run]
    assert _counts(observation.cluster) == _COUNTS[run]
    assert _propagation(observation.cluster) == _PROPAGATION[run]
    # the planted bug is found (convergence: the healed sides never
    # re-merge), the unplanted runs are clean
    assert len(result.violations) == (6 if run == "plant" else 0)


@pytest.mark.parametrize("run", sorted(_LIVENESS))
def test_liveness_census(run, monkeypatch):
    """Of the 2 139 and 1 946 sends of the two runs, heartbeats are 42 %
    and 41 %, and all but 6 go to idle links: piggybacking has nothing
    to ride on between daemons that have nothing else to say."""
    sends = []
    account = Network._account_send

    def recording(self, key, kind, size, now):
        sends.append((now, key, kind))
        account(self, key, kind, size, now)

    monkeypatch.setattr(Network, "_account_send", recording)
    _, observation = _run(run)
    cluster = observation.cluster
    interval = cluster.settings.heartbeat_interval
    last_other: dict = {}
    heartbeats = idle = 0
    for now, key, kind in sends:
        if kind != "gcs.heartbeat":
            last_other[key] = now
            continue
        heartbeats += 1
        idle += now - last_other.get(key, -math.inf) >= interval
    per_daemon_second = heartbeats / len(cluster.servers) / cluster.sim.now
    assert (heartbeats, per_daemon_second, idle) == _LIVENESS[run]
    assert heartbeats == sum(
        cluster.network.sent_count(server, "gcs.heartbeat") for server in cluster.servers
    )


def test_wan_failover_anchor():
    """A primary crash over the heavy-tailed WAN model: 628 log-normal
    draws, so the latency stream is pinned across a block boundary."""
    cluster = make_wan_cluster(n_servers=3, num_backups=1, seed=13)
    handle = cluster.add_client("c0").start_session("m0")
    cluster.run(8.0)
    cluster.crash_server(cluster.primaries_of(handle.session_id)[0])
    cluster.run(15.0)
    assert trace_digest(cluster.trace_log()) == _WAN_DIGEST
    assert _counts(cluster) == _WAN_COUNTS
    assert _propagation(cluster) == _WAN_PROPAGATION
