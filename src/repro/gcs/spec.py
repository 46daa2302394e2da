"""Runtime monitors for the GCS properties the paper relies on.

A :class:`SpecMonitor` is handed to each daemon (``monitor=`` argument) and
records protocol-level events: installed configurations, emitted group
views, and delivered messages.  After a run, the ``check_*`` methods verify

* **self-inclusion** — every installed view contains its installer;
* **monotonic views** — each daemon installs strictly increasing view ids;
* **total order** — within one configuration, a sequence number is bound
  to exactly one request system-wide, and every daemon delivers in
  strictly increasing sequence order — so any two daemons deliver their
  common messages in the same relative order (the agreed-multicast
  property; holes are permitted only across divergence, where virtual
  synchrony no longer binds the two daemons);
* **virtual synchrony** — two daemons that transition from the same
  configuration to the same next configuration delivered the same set of
  messages in the old one;
* **at-most-once** — no daemon delivers the same request id twice.

**Causality across groups is not checked.**  It is argued from the single
total order (every group's messages are sequenced in one configuration-wide
order, so a delivery can never precede one it causally follows); a
vector-clock check (:mod:`repro.gcs.causal`) is not yet wired in.

``check_all`` runs every check and raises one :class:`SpecViolation`
naming each failed property (``failed_properties`` returns them one by
one); the property-based tests call it after every randomized schedule.

A delivery is recorded as two list entries — its seq and its request, in
per-view lists kept index for index — not as an object of its own: a chaos
seed delivers thousands of requests, and a long-lived object per delivery
was work for the cyclic collector on every pass.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.gcs.messages import OrderRequest
from repro.gcs.view import Configuration, GroupView, ViewId
from repro.sim.topology import NodeId


class SpecViolation(AssertionError):
    """A GCS correctness property was violated."""


@dataclass
class _NodeHistory:
    configs: list[Configuration] = field(default_factory=list)
    group_views: list[GroupView] = field(default_factory=list)
    # per configuration view id, in delivery order: the sequence number and
    # the request of each delivery, index for index
    seqs: dict[ViewId, list[int]] = field(
        default_factory=lambda: defaultdict(list)
    )
    requests: dict[ViewId, list[OrderRequest]] = field(
        default_factory=lambda: defaultdict(list)
    )
    # the view deliveries last went to and its two lists: a run of
    # deliveries in one view hashes its (Python-hashed) ViewId once
    last_view: ViewId | None = None
    last_lists: tuple[list[int], list[OrderRequest]] = field(
        default_factory=lambda: ([], [])
    )


class SpecMonitor:
    """Records per-daemon protocol events and checks GCS properties."""

    def __init__(self) -> None:
        self.history: dict[NodeId, _NodeHistory] = defaultdict(_NodeHistory)

    # ------------------------------------------------------------------
    # recording hooks (called by GcsDaemon)
    # ------------------------------------------------------------------
    def record_config_view(self, node: NodeId, config: Configuration) -> None:
        self.history[node].configs.append(config)

    def record_group_view(self, node: NodeId, view: GroupView) -> None:
        self.history[node].group_views.append(view)

    def record_delivery(
        self, node: NodeId, config_view_id: ViewId, seq: int, request: OrderRequest
    ) -> None:
        history = self.history[node]
        if history.last_view is not config_view_id:
            history.last_view = config_view_id
            history.last_lists = (
                history.seqs[config_view_id],
                history.requests[config_view_id],
            )
        seqs, requests = history.last_lists
        seqs.append(seq)
        requests.append(request)

    # ------------------------------------------------------------------
    # checks
    # ------------------------------------------------------------------
    def check_self_inclusion(self) -> None:
        for node, history in self.history.items():
            for config in history.configs:
                if node not in config:
                    raise SpecViolation(
                        f"{node} installed {config} without itself"
                    )
            for view in history.group_views:
                # a final 'I left' view legitimately omits the node; group
                # views containing the node must name it consistently
                if node in view.members and node not in view:
                    raise SpecViolation("inconsistent group view membership")

    def check_monotonic_views(self) -> None:
        for node, history in self.history.items():
            ids = [config.view_id for config in history.configs]
            for earlier, later in zip(ids, ids[1:]):
                if not earlier < later:
                    raise SpecViolation(
                        f"{node} installed non-increasing views {earlier} -> {later}"
                    )

    def check_total_order(self) -> None:
        # Same seq in same configuration => same request, everywhere.
        # (per configuration, then per seq: one ViewId hash per view)
        assignment: dict[ViewId, dict[int, OrderRequest]] = {}
        for node, history in self.history.items():
            for view_id, seqs in history.seqs.items():
                bound = assignment.setdefault(view_id, {})
                for seq, request in zip(seqs, history.requests[view_id]):
                    existing = bound.get(seq)
                    if existing is None:
                        bound[seq] = request
                    elif existing.request_id != request.request_id:
                        raise SpecViolation(
                            f"seq {seq} in {view_id} bound to two requests"
                        )
        # Within a configuration every node delivers in strictly increasing
        # sequence order.  Together with same-seq-same-request above, this
        # gives the agreed-multicast property: any two nodes deliver their
        # common messages in the same relative order.  (Holes are allowed:
        # a node that diverged — e.g. the rest never received a message
        # whose sequencer died — may skip a seq forever; set agreement for
        # nodes that move *together* is check_virtual_synchrony's job.)
        for node, history in self.history.items():
            for view_id, seqs in history.seqs.items():
                if any(a >= b for a, b in zip(seqs, seqs[1:])):
                    raise SpecViolation(
                        f"{node} delivered non-increasing seqs in {view_id}: "
                        f"{seqs}"
                    )

    def _transitions(self, node: NodeId) -> list[tuple[ViewId, ViewId]]:
        configs = self.history[node].configs
        return [
            (a.view_id, b.view_id) for a, b in zip(configs, configs[1:])
        ]

    def check_virtual_synchrony(self) -> None:
        """Daemons moving together old->new delivered identical sets in old."""
        transitions: dict[tuple[ViewId, ViewId], dict[NodeId, frozenset]] = (
            defaultdict(dict)
        )
        for node, history in self.history.items():
            for old_id, new_id in self._transitions(node):
                delivered = frozenset(
                    request.request_id._key()
                    for request in history.requests.get(old_id, ())
                )
                transitions[(old_id, new_id)][node] = delivered
        for (old_id, new_id), per_node in transitions.items():
            sets = list(per_node.values())
            for other in sets[1:]:
                if other != sets[0]:
                    raise SpecViolation(
                        f"virtual synchrony violated in {old_id} -> {new_id}: "
                        f"{per_node}"
                    )

    def check_at_most_once(self) -> None:
        """No daemon delivers the same request id twice (across configs)."""
        for node, history in self.history.items():
            seen = set()
            for requests in history.requests.values():
                for request in requests:
                    key = request.request_id._key()
                    if key in seen:
                        raise SpecViolation(
                            f"{node} delivered request {key} twice"
                        )
                    seen.add(key)

    def failed_properties(self) -> dict[str, str]:
        """Run every check; map each property that fails to its first
        violation (empty when the history satisfies the spec)."""
        failed: dict[str, str] = {}
        for name, check in (
            ("self-inclusion", self.check_self_inclusion),
            ("monotonic views", self.check_monotonic_views),
            ("total order", self.check_total_order),
            ("virtual synchrony", self.check_virtual_synchrony),
            ("at-most-once", self.check_at_most_once),
        ):
            try:
                check()
            except SpecViolation as exc:
                failed[name] = str(exc)
        return failed

    def check_all(self) -> None:
        """Raise one :class:`SpecViolation` naming every failed property."""
        failed = self.failed_properties()
        if failed:
            raise SpecViolation(
                "; ".join(f"{name}: {error}" for name, error in failed.items())
            )

    # ------------------------------------------------------------------
    # convenience queries for tests
    # ------------------------------------------------------------------
    def delivered_payloads(self, node: NodeId) -> list:
        """All payloads ``node`` delivered, in delivery order."""
        history = self.history[node]
        result = []
        for view_id in sorted(
            history.requests, key=lambda v: (v.counter, str(v.coordinator))
        ):
            result.extend(request.payload for request in history.requests[view_id])
        return result


__all__ = ["SpecMonitor", "SpecViolation"]
