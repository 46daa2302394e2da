"""Chaos run configuration and the planted-bug registry.

A :class:`ChaosConfig` pins everything about one exploration *except* the
randomness: cluster shape, run phase lengths, oracle tolerances, and an
optional **planted bug**.  Plants deliberately weaken the implementation
(e.g. disable the handoff-timeout fallback) so the engine's whole pipeline
— find, shrink, persist, replay — can be validated end-to-end against a
failure that is known to exist.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.core.config import AvailabilityPolicy
from repro.gcs.messages import Heartbeat

#: Named deliberate weakenings used to validate the chaos pipeline.
#:
#: ``handoff-stall`` removes the handoff-timeout fallback: a successor
#: primary selected by a *controlled* migration waits for the old
#: primary's context forever.  If the old primary dies before sending it
#: (exactly what the ``pre-handoff`` crash hook provokes), the session
#: goes silent — the responsiveness and convergence oracles both fire.
#:
#: ``partition-amnesia`` puts an :class:`AmnesiacDetector` in front of
#: every daemon's failure detector: each daemon permanently distrusts
#: liveness evidence from members it once evicted, so after a partition
#: heals the two sides keep discarding each other's heartbeats, the views
#: never re-merge, and both primaries persist — the
#: convergence oracle fires.  Unlike ``handoff-stall`` this plant needs
#: real *partition* faults, which is exactly what makes it the validation
#: plant for live-mode chaos (the fault-injecting transport is what made
#: live partitions possible at all).
PLANTS = ("handoff-stall", "partition-amnesia")


class AmnesiacDetector:
    """The ``partition-amnesia`` plant: a daemon's failure detector, deaf
    to every member a view change removed since the daemon booted.

    Heartbeats from such a sender are swallowed and its other
    traffic is no longer evidence that it lives; everything else is the
    wrapped detector's.  Nothing tells the wrapper about installs: it
    diffs ``daemon.config.members`` against what it saw the last time it
    was asked, and the daemon asks on every received message.
    """

    def __init__(self, daemon: Any) -> None:
        self._daemon = daemon
        self._inner = daemon.fd
        self._members: tuple[Any, ...] | None = None
        self._evicted: set[Any] = set()
        self._traced: set[Any] = set()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def _distrusts(self, sender: Any) -> bool:
        members = self._daemon.config.members
        if members != self._members:
            if self._members is not None:
                self._evicted |= set(self._members) - {self._daemon.node_id}
            self._evicted -= set(members)
            self._members = members
        return sender in self._evicted

    def on_message(self, payload: Any, sender: Any) -> bool:
        if not self._distrusts(sender):
            return self._inner.on_message(payload, sender)
        if sender not in self._traced:
            self._traced.add(sender)
            self._daemon.trace("gcs.evicted_liveness_ignored", peer=sender)
        return isinstance(payload, Heartbeat)

    def observe_traffic(self, peer: Any) -> None:
        if not self._distrusts(peer):
            self._inner.observe_traffic(peer)

    def reset(self) -> None:
        """Recovery: a new life has evicted nobody — and has seen no
        membership yet, or its first look at the fresh singleton would
        "evict" the whole previous view."""
        self._members = None
        self._evicted.clear()
        self._traced.clear()
        self._inner.reset()


@dataclass(frozen=True)
class ChaosConfig:
    """Shape and tolerances of one chaos exploration.

    Attributes:
        n_servers: cluster size.  One server (the highest-numbered) is the
            **spare**: generators never crash, slow down, or isolate it,
            so at least one fully-informed witness always survives — the
            precondition for the lost-update and convergence oracles.
        n_sessions: concurrent live sessions (one client + VoD viewer
            workload each), each on its own fully-replicated unit.
        duration: length of the fault-injection window (seconds).
        establish: run time between starting sessions and injecting
            faults (lets streaming reach steady state).
        settle: run time after healing everything, before the oracles
            look (convergence allowance).
        profile: fault mix — ``crashes``, ``partitions``, ``gray`` or
            ``mixed`` (each iteration samples one of the three).
        max_gap: responsiveness bound — the longest response silence
            tolerated *inside clean windows* before the oracle fires.
        overlap_tolerance: role-overlap / dual-sender time tolerated
            inside clean windows (absorbs benign handover edges).
        stabilize_margin: padding added around every disruption when
            computing clean windows (failover + view-formation allowance).
        plant: optional planted bug name from :data:`PLANTS`.
        mode: ``sim`` (default) runs the schedule in the simulator;
            ``live`` runs it against a real asyncio socket cluster with
            fault-injecting transports (``repro.chaos.live``).  Live runs
            take wall-clock time — size ``duration``/``establish``/
            ``settle`` accordingly.
        wan_profile: optional :data:`repro.net.faults.WAN_PROFILES` name;
            live mode shapes every link's base delay and jitter from the
            profile's latency matrix and scales the GCS timing constants
            by its ``settings_factor``.
    """

    n_servers: int = 4
    n_sessions: int = 2
    duration: float = 20.0
    establish: float = 3.0
    settle: float = 10.0
    profile: str = "mixed"
    max_gap: float = 5.0
    overlap_tolerance: float = 0.5
    stabilize_margin: float = 2.0
    plant: str | None = None
    mode: str = "sim"
    wan_profile: str | None = None

    def __post_init__(self) -> None:
        if self.n_servers < 3:
            raise ValueError("chaos needs >= 3 servers (one is the spare)")
        if self.n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if self.profile not in ("crashes", "partitions", "gray", "mixed"):
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.plant is not None and self.plant not in PLANTS:
            raise ValueError(f"unknown plant {self.plant!r} (valid: {PLANTS})")
        if self.mode not in ("sim", "live"):
            raise ValueError(f"unknown mode {self.mode!r} (valid: sim, live)")
        if self.wan_profile is not None and self.mode != "live":
            raise ValueError("wan_profile requires mode='live'")

    # ------------------------------------------------------------------
    # derived topology
    # ------------------------------------------------------------------
    @property
    def server_ids(self) -> list[str]:
        return [f"s{i}" for i in range(self.n_servers)]

    @property
    def spare(self) -> str:
        """The never-faulted witness server."""
        return f"s{self.n_servers - 1}"

    @property
    def faultable_servers(self) -> list[str]:
        return [s for s in self.server_ids if s != self.spare]

    @property
    def client_ids(self) -> list[str]:
        return [f"c{i}" for i in range(self.n_sessions)]

    @property
    def unit_ids(self) -> list[str]:
        """All sessions share ONE content unit.  This matters: the
        join-type rebalance caps primaries per server at
        ``ceil(sessions/servers)`` *within a unit*, so only a multi-session
        unit ever performs controlled migrations (primary moves between
        two live servers — the protocol step the handoff machinery and its
        crash hooks exist for).  One session per unit would never migrate
        except by failure."""
        return ["m0"]

    def build_policy(self) -> AvailabilityPolicy:
        """Full session groups (every server backs every session) so the
        spare always holds a backup context — what makes "an update
        vanished silently" a true invariant rather than the paper's
        accepted probabilistic loss."""
        policy = AvailabilityPolicy(
            num_backups=self.n_servers - 1,
            propagation_period=0.25,
        )
        if self.plant == "handoff-stall":
            # the bug: successor waits (effectively) forever for a handoff
            policy.handoff_timeout = 1e9
        return policy

    def plant_bugs(self, cluster: Any) -> None:
        """Sabotage an assembled cluster (simulated or live, recording or
        replay) as the plant asks; ``handoff-stall`` is already in the
        policy :meth:`build_policy` returned."""
        if self.plant == "partition-amnesia":
            for server in cluster.servers.values():
                server.daemon.fd = AmnesiacDetector(server.daemon)

    # ------------------------------------------------------------------
    # persistence (repro artifacts embed the config)
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ChaosConfig":
        """The config an artifact embeds.  Artifacts recorded while a second
        failure detector existed carry ``"membership": "heartbeat"``; that
        key is dropped, and any other detector is refused by name."""
        data = dict(data)
        membership = data.pop("membership", "heartbeat")
        if membership != "heartbeat":
            raise ValueError(
                f"membership {membership!r} is not supported: the SWIM gossip"
                " detector was removed, the heartbeat mesh is the only one"
            )
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"unknown chaos config keys: {sorted(unknown)}")
        return cls(**data)


__all__ = ["PLANTS", "AmnesiacDetector", "ChaosConfig"]
