"""Membership scaling of the heartbeat mesh.

Sweeps raw daemon clusters from 8 to 200+ nodes and records, per size:

* liveness frames per node per second — linear in the world size, every
  daemon heartbeats every other (the simulator counts frames);
* detection latency p50/p99 — crash one daemon, measure how long each
  survivor's detector takes to drop it from the estimate;
* false evictions during the clean measurement window — peers expired
  while nobody crashed (must be zero).

A WAN-latency variant checks the detector against lognormal 30ms-median
delays.  Results land in ``BENCH_membership.json``;
``benchmarks/check_membership_regression.py`` gates CI on them.  (Until
the SWIM gossip detector was removed, this bench ran it beside the mesh;
DESIGN.md §14 keeps the last comparison.)

``REPRO_BENCH_MEMBERSHIP_SIZES`` (comma list) overrides the sweep sizes —
CI caps at 64; the committed results use the full ``8,64,200``.
"""

from __future__ import annotations

import os

import numpy as np

from repro.gcs.daemon import GcsDaemon
from repro.gcs.settings import GcsSettings
from repro.metrics.collectors import split_liveness
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


def _settings(scale: float = 1.0) -> GcsSettings:
    base = GcsSettings()
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
            f"cluster of {len(self.ids)} never converged within {budget}s"
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

    def expiries(self) -> int:
        """Detector checks that expired a peer, summed over the cluster —
        on a network where nobody crashed, each one is a false eviction."""
        return sum(d.fd.full_scans for d in self.daemons.values())

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


def _measure(n: int, window: float) -> dict:
    cluster = DaemonCluster(n, _settings())
    boot = cluster.settle()
    expiries = cluster.expiries()
    cluster.network.reset_stats()
    cluster.run(window)
    assert cluster.single_view(), "view changed during the clean window"
    rates = cluster.liveness_rates(window)
    false_evictions = cluster.expiries() - expiries
    latencies = cluster.measure_detection(cluster.ids[-1])
    return {
        "boot_convergence_seconds": round(boot, 2),
        **rates,
        "false_evictions_in_window": false_evictions,
        "detection_p50_seconds": round(_percentile(latencies, 0.50), 4),
        "detection_p99_seconds": round(_percentile(latencies, 0.99), 4),
    }


def test_membership_scaling_sweep(benchmark, bench_persist):
    sizes = _sweep_sizes()
    window = 5.0 if os.environ.get("REPRO_BENCH_FULL") == "1" else 3.0

    def sweep():
        return {str(n): _measure(n, window) for n in sizes}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for n in sizes:
        row = results[str(n)]
        assert row["false_evictions_in_window"] == 0, (n, row)
        print(
            f"\nmesh n={n:4d}: "
            f"{row['liveness_frames_per_node_per_sec']:9.1f} liveness frames/node/s, "
            f"detect p50={row['detection_p50_seconds']:.3f}s "
            f"p99={row['detection_p99_seconds']:.3f}s, "
            f"boot {row['boot_convergence_seconds']:.1f}s"
        )
    bench_persist(
        "membership",
        {
            "sim_sweep": {
                "sizes": sizes,
                "window_seconds": window,
                "suspect_timeout_seconds": _settings().suspect_timeout,
                "modes": {"mesh": results},
            }
        },
    )


def test_membership_wan_latency(benchmark, bench_persist):
    """The mesh under WAN delays (lognormal, 30ms median) with ``scaled(3)``
    timings: heartbeats that arrive late, but inside the suspect timeout,
    must never expire a peer."""
    n = 16 if os.environ.get("REPRO_BENCH_FULL") == "1" else 12
    window = 12.0

    def run():
        cluster = DaemonCluster(
            n,
            _settings(scale=3.0),
            latency=wan_latency(np.random.default_rng(7)),
        )
        boot = cluster.settle()
        cluster.network.reset_stats()
        expiries = cluster.expiries()
        cluster.run(window)
        assert cluster.single_view(), "view changed during the WAN window"
        rates = cluster.liveness_rates(window)
        return {
            "nodes": n,
            "boot_convergence_seconds": round(boot, 2),
            "settings_scale": 3.0,
            **rates,
            "false_evictions_in_window": cluster.expiries() - expiries,
        }

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["false_evictions_in_window"] == 0, result
    print(
        f"\nmesh n={n} under WAN latency: 0 false evictions, "
        f"{result['liveness_frames_per_node_per_sec']:.1f} liveness frames/node/s"
    )
    bench_persist("membership", {"wan": result})
