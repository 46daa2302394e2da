"""Membership scaling: SWIM gossip vs the all-pairs heartbeat mesh.

Sweeps raw daemon clusters from 8 to 200+ nodes in both
``membership_mode`` settings and records, per mode and size:

* liveness frames per node per second — the mesh grows linearly with the
  world size, gossip stays ~flat (the simulator counts frames; real bytes
  come from the live loopback run below);
* detection latency p50/p99 — crash one daemon, measure how long each
  survivor's detector takes to drop it from the estimate;
* false suspicions during the clean measurement window (must be zero).

A WAN-latency variant checks the suspicion machinery against lognormal
30ms-median delays, and a live loopback run exercises gossip mode over
real UDP sockets.  Results land in ``BENCH_membership.json``;
``benchmarks/check_membership_regression.py`` gates CI on them.

``REPRO_BENCH_MEMBERSHIP_SIZES`` (comma list) overrides the sweep sizes —
CI caps at 64; the committed results use the full ``8,64,200``.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np

from repro.gcs.daemon import GcsDaemon
from repro.gcs.settings import GcsSettings
from repro.metrics.collectors import split_liveness
from repro.net.cluster import LiveClusterOptions, build_live_cluster, schedule_workload
from repro.sim.engine import Simulator
from repro.sim.latency import FixedLatency, wan_latency
from repro.sim.network import Network
from repro.sim.topology import Topology
from repro.sim.trace import TraceLog

from conftest import persist_bench


def _sweep_sizes() -> list[int]:
    override = os.environ.get("REPRO_BENCH_MEMBERSHIP_SIZES")
    if override:
        return [int(part) for part in override.split(",") if part.strip()]
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return [8, 64, 200]
    return [8, 32]


def _settings(mode: str, scale: float = 1.0) -> GcsSettings:
    base = GcsSettings(membership_mode=mode)
    return base.scaled(scale) if scale != 1.0 else base


class DaemonCluster:
    """N bare GCS daemons on one simulated network (no framework layer —
    this bench isolates the membership substrate)."""

    def __init__(self, n: int, settings: GcsSettings, latency=None):
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            Topology(),
            latency or FixedLatency(0.002),
            trace=TraceLog(enabled=False),
        )
        self.settings = settings
        self.ids = [f"s{i}" for i in range(n)]
        self.daemons = {
            node: GcsDaemon(node, self.network, world=self.ids, settings=settings)
            for node in self.ids
        }
        for daemon in self.daemons.values():
            daemon.start()

    def run(self, duration: float) -> None:
        self.sim.run_until(self.sim.now + duration, max_events=50_000_000)

    def single_view(self, expected: set[str] | None = None) -> bool:
        live = [d for d in self.daemons.values() if d.is_up()]
        views = {d.config.view_id for d in live}
        if len(views) != 1:
            return False
        members = set(live[0].config.members)
        return members == (expected or {d.node_id for d in live})

    def settle(self, budget: float = 90.0) -> float:
        """Run until every daemon sits in one full view; returns the sim
        time it took (the boot-convergence time)."""
        start = self.sim.now
        deadline = start + budget
        while self.sim.now < deadline:
            if self.single_view():
                return self.sim.now - start
            self.run(0.5)
        raise AssertionError(
            f"cluster of {len(self.ids)} never converged within {budget}s "
            f"({self.settings.membership_mode})"
        )

    def liveness_rates(self, window: float) -> dict[str, float]:
        """Per-node per-second liveness/data frames over the last
        ``window`` seconds (stats must have been reset at window start)."""
        nodes = len(self.ids)
        liveness_frames = data_frames = 0
        for node in self.ids:
            per_kind = self.network.sent_kind_stats(node)
            frames = {kind: sent for kind, (sent, _b) in per_kind.items()}
            lf, df = split_liveness(frames)
            liveness_frames += lf
            data_frames += df
        return {
            "liveness_frames_per_node_per_sec": round(
                liveness_frames / nodes / window, 2
            ),
            "data_frames_per_node_per_sec": round(data_frames / nodes / window, 2),
        }

    def false_suspicions(self) -> dict[str, int]:
        """Detector-level counters summed over the cluster (gossip mode
        exposes them; the mesh has no suspicion stage)."""
        if self.settings.membership_mode != "gossip":
            return {}
        return {
            "suspicions_started": sum(
                d.fd.suspicions_started for d in self.daemons.values()
            ),
            "suspicions_refuted": sum(
                d.fd.suspicions_refuted for d in self.daemons.values()
            ),
            "evictions": sum(d.fd.evictions for d in self.daemons.values()),
        }

    def measure_detection(self, victim: str) -> list[float]:
        """Crash ``victim`` and poll every survivor's detector until it
        drops the victim from its estimate; returns per-survivor
        latencies (seconds from the crash)."""
        self.daemons[victim].crash()
        crash_at = self.sim.now
        survivors = [n for n in self.ids if n != victim]
        detected: dict[str, float] = {}
        give_up = crash_at + 30.0
        while len(detected) < len(survivors) and self.sim.now < give_up:
            self.run(0.01)
            for node in survivors:
                if node in detected:
                    continue
                if victim not in self.daemons[node].fd.alive_peers():
                    detected[node] = self.sim.now - crash_at
        assert len(detected) == len(survivors), (
            f"{len(survivors) - len(detected)} survivors never detected the crash"
        )
        return sorted(detected.values())


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _measure(mode: str, n: int, window: float) -> dict:
    cluster = DaemonCluster(n, _settings(mode))
    boot = cluster.settle()
    baseline = cluster.false_suspicions()
    cluster.network.reset_stats()
    cluster.run(window)
    assert cluster.single_view(), "view changed during the clean window"
    rates = cluster.liveness_rates(window)
    counters = cluster.false_suspicions()
    false_evictions = (
        counters.get("evictions", 0) - baseline.get("evictions", 0)
        if counters
        else 0
    )
    latencies = cluster.measure_detection(cluster.ids[-1])
    return {
        "boot_convergence_seconds": round(boot, 2),
        **rates,
        "false_evictions_in_window": false_evictions,
        "detection_p50_seconds": round(_percentile(latencies, 0.50), 4),
        "detection_p99_seconds": round(_percentile(latencies, 0.99), 4),
        **({"counters": counters} if counters else {}),
    }


def test_membership_scaling_sweep(benchmark, bench_persist):
    sizes = _sweep_sizes()
    window = 5.0 if os.environ.get("REPRO_BENCH_FULL") == "1" else 3.0

    def sweep():
        results: dict[str, dict] = {"mesh": {}, "gossip": {}}
        for mode_key, mode in (("mesh", "heartbeat"), ("gossip", "gossip")):
            for n in sizes:
                results[mode_key][str(n)] = _measure(mode, n, window)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for mode_key in ("mesh", "gossip"):
        for n in sizes:
            row = results[mode_key][str(n)]
            assert row["false_evictions_in_window"] == 0, (mode_key, n, row)
            print(
                f"\n{mode_key:7s} n={n:4d}: "
                f"{row['liveness_frames_per_node_per_sec']:9.1f} liveness frames/node/s, "
                f"detect p50={row['detection_p50_seconds']:.3f}s "
                f"p99={row['detection_p99_seconds']:.3f}s, "
                f"boot {row['boot_convergence_seconds']:.1f}s"
            )
    small, large = str(min(sizes)), str(max(sizes))
    mesh_growth = (
        results["mesh"][large]["liveness_frames_per_node_per_sec"]
        / results["mesh"][small]["liveness_frames_per_node_per_sec"]
    )
    gossip_growth = (
        results["gossip"][large]["liveness_frames_per_node_per_sec"]
        / results["gossip"][small]["liveness_frames_per_node_per_sec"]
    )
    print(
        f"\nliveness frames/node growth {small}->{large}: "
        f"mesh {mesh_growth:.1f}x, gossip {gossip_growth:.1f}x"
    )
    assert gossip_growth < mesh_growth, "gossip must scale better than the mesh"
    bench_persist(
        "membership",
        {
            "sim_sweep": {
                "sizes": sizes,
                "window_seconds": window,
                "suspect_timeout_seconds": _settings("heartbeat").suspect_timeout,
                "modes": results,
            }
        },
    )


def test_membership_wan_latency(benchmark, bench_persist):
    """Gossip under WAN delays (lognormal, 30ms median): the suspicion /
    refutation machinery must keep false evictions at zero while probe
    RTTs routinely exceed the LAN probe timeout."""
    n = 16 if os.environ.get("REPRO_BENCH_FULL") == "1" else 12
    window = 12.0

    def run():
        cluster = DaemonCluster(
            n,
            _settings("gossip", scale=3.0),
            latency=wan_latency(np.random.default_rng(7)),
        )
        boot = cluster.settle()
        cluster.network.reset_stats()
        before = cluster.false_suspicions()
        cluster.run(window)
        assert cluster.single_view(), "view changed during the WAN window"
        after = cluster.false_suspicions()
        rates = cluster.liveness_rates(window)
        return {
            "nodes": n,
            "boot_convergence_seconds": round(boot, 2),
            "settings_scale": 3.0,
            **rates,
            "suspicions_started_in_window": after["suspicions_started"]
            - before["suspicions_started"],
            "false_evictions_in_window": after["evictions"] - before["evictions"],
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["false_evictions_in_window"] == 0, result
    print(
        f"\ngossip n={n} under WAN latency: "
        f"{result['suspicions_started_in_window']} transient suspicions, "
        f"0 false evictions, "
        f"{result['liveness_frames_per_node_per_sec']:.1f} liveness frames/node/s"
    )
    bench_persist("membership", {"wan": result})


async def _live_gossip_run(options: LiveClusterOptions) -> dict:
    cluster = await build_live_cluster(options)
    try:
        plan = schedule_workload(cluster, options)
        await cluster.runtime.run(plan.duration)
        # UDP loopback can drop frames under load, resyncing a node to a
        # singleton view mid-run; give gossip re-merge time to converge
        # instead of asserting a one-shot snapshot.
        expected = {str(node) for node in cluster.servers}
        extra = 0.0
        while extra < 20.0:
            views = {
                frozenset(str(m) for m in server.daemon.config.members)
                for server in cluster.servers.values()
            }
            if views == {frozenset(expected)}:
                break
            await cluster.runtime.run(1.0)
            extra += 1.0
        liveness_bytes = data_bytes = 0
        for node, network in cluster.networks.items():
            lb, db = split_liveness(network.actual_bytes_sent)
            liveness_bytes += lb
            data_bytes += db
        members = {
            str(node): sorted(str(m) for m in server.daemon.config.members)
            for node, server in cluster.servers.items()
        }
        return {
            "sim_seconds": plan.duration + extra,
            "nodes": options.nodes,
            "extra_convergence_seconds": extra,
            "liveness_bytes_sent": liveness_bytes,
            "data_bytes_sent": data_bytes,
            "members": members,
        }
    finally:
        await cluster.close()


def test_membership_live_loopback_gossip(benchmark, bench_persist):
    """Gossip mode over real UDP loopback sockets: the cluster must form
    a full view and serve the scripted workload — the live-wire proof
    that the SWIM path works outside the simulator."""
    nodes = 10 if os.environ.get("REPRO_BENCH_FULL") == "1" else 5
    options = LiveClusterOptions(
        nodes=nodes,
        loopback=True,
        requests=60,
        kill_primary=False,
        update_interval=0.02,
        warmup=2.5,
        settle=1.5,
        profile="live_lan_gossip",
    )

    def once():
        return asyncio.run(_live_gossip_run(options))

    result = benchmark.pedantic(once, rounds=1, iterations=1)
    expected = sorted(f"s{i}" for i in range(nodes))
    full_views = sum(
        1 for members in result["members"].values() if members == expected
    )
    assert full_views == nodes, result["members"]
    per_node_rate = result["liveness_bytes_sent"] / nodes / result["sim_seconds"]
    out = {
        "nodes": nodes,
        "liveness_bytes_per_node_per_sec": round(per_node_rate, 1),
        "data_bytes_sent": result["data_bytes_sent"],
        "extra_convergence_seconds": result["extra_convergence_seconds"],
        "full_views": full_views,
    }
    bench_persist("membership", {"live_loopback_gossip": out})
    print(
        f"\nlive gossip over UDP loopback: {nodes} nodes, full view on all, "
        f"{per_node_rate:.0f} liveness B/node/s"
    )
