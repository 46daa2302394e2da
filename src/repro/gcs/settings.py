"""Tunable protocol constants for the GCS."""

from __future__ import annotations

from dataclasses import dataclass, replace


# the fields scaled() multiplies: every setting that is a length of time
# (tests/gcs/test_units.py holds every float field to this list or to an
# explicit not-a-duration set, so a new timeout cannot be forgotten here)
DURATION_FIELDS = (
    "heartbeat_interval",
    "suspect_timeout",
    "sync_timeout",
    "install_timeout",
    "client_ack_timeout",
    "batch_window",
)


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
        detect_divergence: reconfigure when a reachable peer persistently
            reports a different installed view (the zombie-view guard;
            see DESIGN.md §6).  Disable only for the ablation study.
        end_to_end_client_acks: acknowledge a client multicast only once
            it is delivered in the total order (not merely received by
            the contact daemon).  Disable only for the ablation study.
        batch_window: minimum spacing between two ``SequencedBatch``
            disseminations of the sequencer.  A message that finds the
            sequencer quiet (no batch sent within the last window) is not
            delayed: it leaves at once, as a batch of one.  Messages that
            arrive inside the window after a flush leave together at its
            end, so nothing is held longer than ``batch_window`` and at
            most ``1/batch_window`` batches leave per second — under load
            the per-member unicast is amortized over many multicasts,
            when idle ordering costs no wait.  ``0.0`` is no spacing: every
            message leaves at once, as a batch of one.
        batch_max: flush the buffer before the window's end once it holds
            this many messages (bounds message size under bursts; the only
            case in which two batches are closer than ``batch_window``).
        piggyback_liveness: treat any received GCS message as liveness
            evidence for its sender and suppress an explicit heartbeat to
            a peer the sender messaged within the last interval.  Cuts the
            steady-state O(world²) heartbeat storm on busy links.
        holdback_keep: cap on the delivered messages the holdback buffer
            retains for NACK retransmission and the flush.  The buffer is
            pruned at the stable point the members' liveness messages
            report (what every member has delivered), so the cap binds
            only while a member is not reporting; a peer lagging further
            than this can no longer be repaired in place and is resynced
            via a view change.
    """

    heartbeat_interval: float = 0.1
    suspect_timeout: float = 0.35
    sync_timeout: float = 0.6
    install_timeout: float = 1.2
    client_ack_timeout: float = 0.25
    detect_divergence: bool = True
    end_to_end_client_acks: bool = True
    batch_window: float = 0.002
    batch_max: int = 32
    piggyback_liveness: bool = True
    holdback_keep: int = 4096

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
        """
        return cls(
            heartbeat_interval=0.008,
            suspect_timeout=0.03,
            sync_timeout=0.12,
            install_timeout=0.25,
            client_ack_timeout=0.04,
            batch_window=0.001,
            batch_max=64,
        )

    def scaled(self, factor: float) -> "GcsSettings":
        """Return a copy with all timeouts multiplied by ``factor``
        (e.g. ``settings.scaled(50)`` for WAN latencies)."""
        return replace(
            self, **{name: getattr(self, name) * factor for name in DURATION_FIELDS}
        )


__all__ = ["DURATION_FIELDS", "GcsSettings"]
