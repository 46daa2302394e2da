"""Tunable protocol constants for the GCS."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GcsSettings:
    """Timing parameters of the GCS protocol stack.

    The defaults suit the LAN latency preset (sub-millisecond one-way
    delays).  WAN experiments scale them up via :meth:`scaled`.

    Attributes:
        heartbeat_interval: period of the failure detector's heartbeats
            (and of the daemon's upkeep tick).
        suspect_timeout: silence after which a peer is suspected — the
            detection time itself, not a lower bound on it: shorter
            silence never suspects, and silence that reaches it suspects
            at that instant, not at the next tick (DESIGN.md §5.9).  Must
            be a few heartbeat intervals to ride out jitter and loss.
        sync_timeout: how long a view-formation coordinator waits for
            synchronization replies before dropping non-responders and
            restarting the attempt.
        install_timeout: how long a participant waits for the INSTALL after
            accepting a proposal before giving up on the coordinator
            (this wait and the sync wait end at their deadline too).
        client_ack_timeout: how long a client waits for a contact daemon's
            receipt acknowledgement before rotating to another contact.
        client_max_retries: give up (surface an error to the application)
            after this many contact rotations for one message.
        detect_divergence: reconfigure when a reachable peer persistently
            reports a different installed view (the zombie-view guard;
            see DESIGN.md §6).  Disable only for the ablation study.
        end_to_end_client_acks: acknowledge a client multicast only once
            it is delivered in the total order (not merely received by
            the contact daemon).  Disable only for the ablation study.
        batch_window: how long the sequencer accumulates order requests
            before disseminating them as one ``SequencedBatch`` (amortizes
            the per-member unicast over many multicasts).  ``0.0`` disables
            batching and restores the one-``Sequenced``-per-request wire
            behaviour.
        batch_max: flush a partially filled batch early once it holds this
            many messages (bounds latency *and* message size under bursts).
        piggyback_liveness: treat any received GCS message as liveness
            evidence for its sender and suppress an explicit heartbeat to
            a peer the sender messaged within the last interval.  Cuts the
            steady-state O(world²) heartbeat storm on busy links.
        heartbeat_refresh_factor: even with piggybacking, force a full
            heartbeat to every peer at least once per this many intervals —
            heartbeats are the only carriers of the sender's view id and
            incarnation, which the divergence and restart detectors need.
        holdback_keep: delivered messages the holdback buffer retains for
            NACK retransmission; a peer lagging further than this can no
            longer be repaired in place and is resynced via a view change.
        readmit_evicted: accept liveness evidence (heartbeats, piggybacked
            traffic) from members this daemon has evicted from a past
            configuration.  **Must stay True for correctness** — turning
            it off reproduces the "partition amnesia" bug class: after a
            partition heals, each side keeps discarding the other side's
            heartbeats, the components never re-merge, and both primaries
            persist forever.  Exists only as a chaos-engine plant
            (``ChaosConfig.plant = "partition-amnesia"``).
        membership_mode: failure-detection protocol — ``"heartbeat"`` is
            the all-pairs mesh above, ``"gossip"`` the SWIM detector in
            ``gcs/swim.py`` (constant per-node probe work, epidemic
            dissemination; see DESIGN.md §14).  Everything above the
            detector interface is identical in both modes.
        probe_interval: period of one SWIM probe round (gossip mode only).
        probe_timeout: how long a prober waits for a direct ack before
            asking ``swim_fanout`` helpers to probe the target indirectly;
            must be well under ``probe_interval``.
        suspicion_multiplier: a suspected member is evicted after
            ``suspicion_multiplier * probe_interval * log10(n + 1)``
            seconds of unrefuted suspicion — scaling with the member count
            gives the subject's refutation time to spread epidemically.
        swim_fanout: indirect probe helpers per failed direct probe; also
            the gossip retransmission multiplier (each update is forwarded
            ``~swim_fanout * log10(n + 1)`` times per node).
        anti_entropy_interval: period of the push-pull full-digest
            exchange with one random peer (bounds convergence time after
            partitions heal and for updates that missed the piggyback).
        gossip_max_updates: most piggybacked membership updates carried on
            one swim message (bounds probe frame size).
    """

    heartbeat_interval: float = 0.1
    suspect_timeout: float = 0.35
    sync_timeout: float = 0.6
    install_timeout: float = 1.2
    client_ack_timeout: float = 0.25
    client_max_retries: int = 10
    detect_divergence: bool = True
    end_to_end_client_acks: bool = True
    batch_window: float = 0.002
    batch_max: int = 32
    piggyback_liveness: bool = True
    heartbeat_refresh_factor: int = 4
    holdback_keep: int = 4096
    readmit_evicted: bool = True
    membership_mode: str = "heartbeat"
    probe_interval: float = 0.1
    probe_timeout: float = 0.04
    suspicion_multiplier: float = 3.0
    swim_fanout: int = 3
    anti_entropy_interval: float = 1.0
    gossip_max_updates: int = 12

    @property
    def batching_enabled(self) -> bool:
        return self.batch_window > 0.0

    @classmethod
    def live_lan(cls) -> "GcsSettings":
        """Tight timings for live loopback/LAN deployments.

        The defaults above are padded for the simulator's adversity
        experiments (partitions, loss, multi-second stalls).  On a real
        loopback cluster with the struct fast-path codec and coalescing
        transports, a heartbeat round-trip costs well under a
        millisecond, so the failure detector and client-ack rotation can
        run an order of magnitude hotter — which is what turns a
        node-kill into a sub-100ms takeover instead of a sub-second one.
        ``suspect_timeout`` stays a few heartbeat intervals to ride out
        scheduler jitter, same rule as the default profile.

        The SWIM knobs are deliberately *less* aggressive than the mesh
        heartbeat: mesh liveness accepts any heartbeat within the
        suspicion window, but a SWIM probe demands one specific
        ping->ack round trip inside ``probe_timeout`` — on a loaded
        event loop a few milliseconds of scheduling jitter would
        manufacture suspicions (and under churn, view resyncs) that the
        network never caused.
        """
        return cls(
            heartbeat_interval=0.008,
            suspect_timeout=0.03,
            sync_timeout=0.12,
            install_timeout=0.25,
            client_ack_timeout=0.04,
            batch_window=0.001,
            batch_max=64,
            probe_interval=0.04,
            probe_timeout=0.02,
            anti_entropy_interval=0.2,
        )

    def scaled(self, factor: float) -> "GcsSettings":
        """Return a copy with all timeouts multiplied by ``factor``
        (e.g. ``settings.scaled(50)`` for WAN latencies)."""
        return GcsSettings(
            heartbeat_interval=self.heartbeat_interval * factor,
            suspect_timeout=self.suspect_timeout * factor,
            sync_timeout=self.sync_timeout * factor,
            install_timeout=self.install_timeout * factor,
            client_ack_timeout=self.client_ack_timeout * factor,
            client_max_retries=self.client_max_retries,
            detect_divergence=self.detect_divergence,
            end_to_end_client_acks=self.end_to_end_client_acks,
            batch_window=self.batch_window * factor,
            batch_max=self.batch_max,
            piggyback_liveness=self.piggyback_liveness,
            heartbeat_refresh_factor=self.heartbeat_refresh_factor,
            holdback_keep=self.holdback_keep,
            readmit_evicted=self.readmit_evicted,
            membership_mode=self.membership_mode,
            probe_interval=self.probe_interval * factor,
            probe_timeout=self.probe_timeout * factor,
            suspicion_multiplier=self.suspicion_multiplier,
            swim_fanout=self.swim_fanout,
            anti_entropy_interval=self.anti_entropy_interval * factor,
            gossip_max_updates=self.gossip_max_updates,
        )


__all__ = ["GcsSettings"]
