"""The link model: the one holder of fault state, read by both runtimes.

The paper's risk analysis distinguishes *transitive* connectivity (typical
of a LAN: partitions split the system into clean components) from
*non-transitive* connectivity (occasionally seen in WANs: two servers cannot
talk to each other yet both can talk to the client).  The second pattern is
exactly the one that lets a session group split with two sides each
believing it owns the client (Section 4, third bullet).  The model
therefore supports both whole-set partitions and individual directed link
cuts, plus the gray-failure vocabulary the chaos engine injects: per-link
delay spikes, duplication and reordering.

:class:`Topology` implements the whole link-fault vocabulary
(``partition`` … ``clear_all``) that :func:`repro.faults.injector.apply`
drives.  It holds state and draws nothing: the simulated
:class:`~repro.sim.network.Network` reads it on every send and delivery
and draws from its own seeded streams, and on the live wire every
:class:`~repro.net.faults.FaultyTransport` reads it at send and when a
held frame fires, drawing from its per-link streams.  A partition
therefore means the same thing in the simulator, in-process and across
``repro serve`` processes.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Hashable

from repro.faults.schedule import DELAY, PROBABILITY

NodeId = Hashable


class Link:
    """The fault state of one directed link ``sender -> receiver``: can a
    message cross it now, and how much extra one-way delay it carries.

    The simulator's send path reads this record, and nothing else of the
    model but the two adversity probabilities, on every message, through
    the route that holds it; the model refreshes ``connected`` in place on
    every connectivity change and replaces a record only in
    :meth:`Topology.remove_node`.
    """

    __slots__ = ("connected", "extra_delay")

    def __init__(self, connected: bool) -> None:
        self.connected = connected
        self.extra_delay = 0.0


class Topology:
    """Mutable connectivity and link adversity among node identifiers.

    By default every pair of nodes is connected.  Connectivity is reduced
    either by *partitioning* (grouping nodes into components; traffic only
    flows within a component) or by cutting individual directed links.  Both
    mechanisms compose: a link is usable only if the partition allows it and
    it is not individually cut.  Healing one layer leaves the other, and
    nodes a partition does not mention form one implicit extra component.

    ``duplicate_probability`` and ``reorder_probability`` (with
    ``reorder_window``) are cluster-wide; extra delay is per directed
    link.  :meth:`clear_all` lifts everything a schedule can inject.
    """

    def __init__(self, nodes: Iterable[NodeId] = ()) -> None:
        self._nodes: set[NodeId] = set(nodes)
        self._component_of: dict[NodeId, int] = {}
        self._cut_links: set[tuple[NodeId, NodeId]] = set()
        self._down: set[NodeId] = set()
        #: one record per directed link asked about (see :meth:`link`)
        self.links: dict[tuple[NodeId, NodeId], Link] = {}
        self.duplicate_probability = 0.0
        self.reorder_probability = 0.0
        self.reorder_window = 0.0
        self._adversity_refused: str | None = None

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        self._nodes.add(node)

    def remove_node(self, node: NodeId) -> None:
        self._nodes.discard(node)
        self._component_of.pop(node, None)
        self._down.discard(node)
        self._cut_links = {
            (a, b) for (a, b) in self._cut_links if a != node and b != node
        }
        for key in [key for key in self.links if node in key]:
            del self.links[key]
        self._refresh()

    @property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self._nodes)

    # ------------------------------------------------------------------
    # node up/down (process crash is modelled in Process; *network* down
    # here models an unplugged machine whose packets vanish)
    # ------------------------------------------------------------------
    def set_node_down(self, node: NodeId, down: bool = True) -> None:
        if down:
            self._down.add(node)
        else:
            self._down.discard(node)
        self._refresh()

    def is_node_down(self, node: NodeId) -> bool:
        return node in self._down

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, *components: Iterable[NodeId]) -> None:
        """Split the listed nodes into components.

        Nodes not mentioned in any component keep full connectivity with
        each other but are isolated from all partitioned nodes only if the
        partitioned node's component excludes them — i.e. unmentioned nodes
        form one implicit extra component.
        """
        self._component_of = {}
        for index, component in enumerate(components):
            for node in component:
                self._component_of[node] = index
        self._refresh()

    def heal_partition(self) -> None:
        """Remove all partition constraints (cut links remain cut)."""
        self._component_of = {}
        self._refresh()

    def _same_component(self, a: NodeId, b: NodeId) -> bool:
        ca = self._component_of.get(a, -1)
        cb = self._component_of.get(b, -1)
        return ca == cb

    # ------------------------------------------------------------------
    # individual link cuts (directed; cut both directions for a symmetric
    # failure).  These create non-transitive connectivity.
    # ------------------------------------------------------------------
    def cut_link(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        self._cut_links.add((a, b))
        if symmetric:
            self._cut_links.add((b, a))
        self._refresh()

    def restore_link(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        self._cut_links.discard((a, b))
        if symmetric:
            self._cut_links.discard((b, a))
        self._refresh()

    def restore_all_links(self) -> None:
        self._cut_links.clear()
        self._refresh()

    # ------------------------------------------------------------------
    # latency spikes and message adversity
    # ------------------------------------------------------------------
    def set_link_delay(
        self, a: NodeId, b: NodeId, extra: float, symmetric: bool = True
    ) -> None:
        """Add ``extra`` seconds of one-way delay to the ``a -> b`` link
        (a transient congestion spike; :meth:`clear_link_delay` lifts it)."""
        if extra not in DELAY:
            raise ValueError(f"extra link delay must be in {DELAY}")
        self.link(a, b).extra_delay = extra
        if symmetric:
            self.link(b, a).extra_delay = extra

    def clear_link_delay(self, a: NodeId, b: NodeId, symmetric: bool = True) -> None:
        self.link(a, b).extra_delay = 0.0
        if symmetric:
            self.link(b, a).extra_delay = 0.0

    def refuse_adversity(self, reason: str) -> None:
        """Make a non-zero :meth:`set_duplication` or
        :meth:`set_reordering` raise ``ValueError(reason)``: for a reader
        with nothing seeded to draw those decisions from."""
        self._adversity_refused = reason

    def _check_adversity(self, probability: float, what: str) -> None:
        if probability not in PROBABILITY:
            raise ValueError(f"{what} probability must be in {PROBABILITY}")
        if probability > 0.0 and self._adversity_refused is not None:
            raise ValueError(self._adversity_refused)

    def set_duplication(self, probability: float) -> None:
        """Deliver each unicast twice with the given probability (the
        second copy trails the first and is FIFO-exempt)."""
        self._check_adversity(probability, "duplicate")
        self.duplicate_probability = probability

    def set_reordering(self, probability: float, window: float = 0.05) -> None:
        """With the given probability, hold a message back by up to
        ``window`` extra seconds and exempt it from per-pair FIFO, so it
        can arrive after messages sent later on the same link."""
        if window not in DELAY:
            raise ValueError(f"reorder window must be in {DELAY}")
        self._check_adversity(probability, "reorder")
        self.reorder_probability = probability
        self.reorder_window = window

    def clear_all(self) -> None:
        """Lift every injected fault — adversity, delay spikes, partition
        *and* cut links (the chaos heal sweep).  Down nodes stay down."""
        self.duplicate_probability = 0.0
        self.reorder_probability = 0.0
        self.reorder_window = 0.0
        for link in self.links.values():
            link.extra_delay = 0.0
        self._component_of = {}
        self._cut_links.clear()
        self._refresh()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def connected(self, sender: NodeId, receiver: NodeId) -> bool:
        """Can a message sent now by ``sender`` reach ``receiver``?"""
        if sender == receiver:
            return sender not in self._down
        if sender in self._down or receiver in self._down:
            return False
        if not self._same_component(sender, receiver):
            return False
        return (sender, receiver) not in self._cut_links

    def link(self, sender: NodeId, receiver: NodeId) -> Link:
        """The record of ``sender -> receiver``, made on first ask."""
        link = self.links.get((sender, receiver))
        if link is None:
            link = self.links[(sender, receiver)] = Link(
                self.connected(sender, receiver)
            )
        return link

    def _refresh(self) -> None:
        """Recompute every record's ``connected`` — every connectivity
        mutator ends here, so a record never outlives the state it was
        computed from."""
        for (sender, receiver), link in self.links.items():
            link.connected = self.connected(sender, receiver)

    def component_members(self, node: NodeId) -> frozenset[NodeId]:
        """All nodes bidirectionally connected to ``node`` (direct links)."""
        return frozenset(
            other
            for other in self._nodes
            if self.connected(node, other) and self.connected(other, node)
        )

    def is_transitive(self) -> bool:
        """True when current connectivity is an equivalence relation.

        Non-transitive states arise from asymmetric/selective link cuts and
        are the WAN pattern from the paper's Section 4.
        """
        nodes = [n for n in self._nodes if n not in self._down]
        for a in nodes:
            for b in nodes:
                if not self.connected(a, b):
                    continue
                for c in nodes:
                    if self.connected(b, c) and not self.connected(a, c):
                        return False
        return True

    def snapshot(self) -> dict:
        """A JSON-friendly dump of every fault the model holds."""
        return {
            "nodes": sorted(map(str, self._nodes)),
            "down": sorted(map(str, self._down)),
            "components": {str(n): c for n, c in self._component_of.items()},
            "cut_links": sorted((str(a), str(b)) for a, b in self._cut_links),
            "link_delays": sorted(
                (str(a), str(b), link.extra_delay)
                for (a, b), link in self.links.items()
                if link.extra_delay
            ),
            "duplicate_probability": self.duplicate_probability,
            "reorder_probability": self.reorder_probability,
            "reorder_window": self.reorder_window,
        }


__all__ = ["Link", "NodeId", "Topology"]
