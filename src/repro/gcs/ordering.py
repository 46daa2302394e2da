"""Total-order delivery machinery: holdback, duplicate suppression, and
tracking of a daemon's own pending requests.

Within a configuration the network's per-pair FIFO property means messages
from the sequencer arrive gap-free, but the holdback buffer still enforces
in-sequence delivery defensively (a gap can only be resolved across a view
change, where the flush round fills or truncates it).

*Receiving* and *delivering* are deliberately separate: while a daemon
participates in a view-formation attempt it keeps receiving (and reporting)
sequenced messages but withholds delivery, so that it never delivers a
message the coordinator's flush union might not contain — that separation
is what makes virtual synchrony hold.
"""

from __future__ import annotations

from repro.gcs.messages import OrderRequest, RequestId, Sequenced, SequencedBatch


class HoldbackBuffer:
    """Stores one configuration's sequenced messages and releases them in
    contiguous sequence order.

    ``delivered_upto`` is the count of messages actually handed to the
    application; everything inserted (delivered or not) is reported by
    :meth:`all_received` for the flush round.  ``pruned_below`` is the
    lowest sequence number still retransmittable: anything below it was
    discarded by :meth:`prune` and can never be served to a NACK again.

    The per-tick upkeep (:meth:`prune`, :meth:`missing_seqs`) costs what
    moved since the last call, not what is retained: the highest received
    sequence number is a field, and pruning walks only the range the floor
    crossed (a late duplicate from below the floor is refused at insert,
    so nothing is ever left behind it).
    """

    def __init__(self) -> None:
        self._all: dict[int, Sequenced] = {}
        self._highest = -1
        self.delivered_upto = 0
        self.pruned_below = 0

    def insert(self, message: Sequenced) -> None:
        """Record a sequenced message (duplicates are ignored)."""
        seq = message.seq
        if seq >= self.pruned_below and seq not in self._all:
            self._all[seq] = message
            if seq > self._highest:
                self._highest = seq

    def insert_batch(self, batch: SequencedBatch) -> int:
        """Record every message of a batch; returns how many were new.
        Re-received batches (e.g. a NACK retransmission overlapping a late
        original) are de-duplicated per entry."""
        before = len(self._all)
        for message in batch.messages:
            self.insert(message)
        return len(self._all) - before

    def take_ready(self) -> list[Sequenced]:
        """Pop the messages now deliverable in contiguous order, advancing
        the delivery point.  Call only when delivery is permitted."""
        ready: list[Sequenced] = []
        while self.delivered_upto in self._all:
            ready.append(self._all[self.delivered_upto])
            self.delivered_upto += 1
        return ready

    def all_received(self) -> dict[int, Sequenced]:
        """Every sequenced message seen so far, delivered or held back."""
        return dict(self._all)

    def delivered_count(self) -> int:
        return self.delivered_upto

    def missing_seqs(self, limit: int = 64) -> list[int]:
        """Sequence numbers between the delivery point and the highest
        received that have not arrived — the gaps a lossy link leaves,
        reported to the sequencer in a NACK for retransmission."""
        missing: list[int] = []
        for seq in range(self.delivered_upto, self._highest):
            if seq not in self._all:
                missing.append(seq)
                if len(missing) >= limit:
                    break
        return missing

    def get(self, seq: int) -> Sequenced | None:
        return self._all.get(seq)

    def prune(self, keep: int = 4096, stable: int = 0) -> None:
        """Discard delivered messages no member can still ask for.

        ``stable`` is the least delivery point the configuration's members
        reported (:meth:`GcsDaemon._stable_point`): a NACK names sequence
        numbers at or above its sender's delivery point, and a flush union
        needs only what some survivor has not delivered, so everything
        below it is dead weight.  The cut never passes the highest entry
        (the sequencer's tail repair repeats it) nor this buffer's own
        delivery point.  However far behind ``stable`` stays — a member
        that stopped reporting — at most ``keep`` delivered messages are
        retained, as the cap on what a sync reply can rebuild.
        """
        floor = max(
            self.delivered_upto - keep,
            min(stable, self.delivered_upto, self._highest),
        )
        if floor <= self.pruned_below:
            return
        for seq in range(self.pruned_below, floor):
            self._all.pop(seq, None)
        self.pruned_below = floor

    def __len__(self) -> int:
        return len(self._all)


class DuplicateFilter:
    """Per-origin at-most-once delivery, tolerant of out-of-order
    retransmissions.

    Request counters are monotone per ``(origin, incarnation)``, but
    delivery order is *not* guaranteed FIFO per origin: an order request
    lost in a view change is retransmitted and may be sequenced after the
    origin's newer requests.  A max-counter filter would brand such a late
    retransmission a duplicate and silently lose it; instead we keep, per
    origin, the contiguous-from-zero ``floor`` plus the sparse set of
    delivered counters above it (TCP-SACK style), so a gap-filling late
    delivery is recognized as new.

    ``MAX_SPARSE`` bounds the sparse set for origins with a permanent gap
    (e.g. a client that gave up on a request): beyond it the oldest gap is
    abandoned by advancing the floor.
    """

    MAX_SPARSE = 1024

    def __init__(self) -> None:
        self._floor: dict[tuple, int] = {}
        self._above: dict[tuple, set[int]] = {}

    @staticmethod
    def _key(request_id: RequestId) -> tuple:
        return (str(request_id.origin), request_id.incarnation)

    def is_duplicate(self, request_id: RequestId) -> bool:
        key = self._key(request_id)
        if request_id.counter <= self._floor.get(key, -1):
            return True
        return request_id.counter in self._above.get(key, ())

    def mark_delivered(self, request_id: RequestId) -> None:
        key = self._key(request_id)
        self._mark(key, request_id.counter)

    def _mark(self, key: tuple, counter: int) -> None:
        floor = self._floor.get(key, -1)
        if counter <= floor:
            return
        above = self._above.setdefault(key, set())
        above.add(counter)
        while floor + 1 in above:
            floor += 1
            above.discard(floor)
        if len(above) > self.MAX_SPARSE:
            # a permanent gap: abandon it (the origin stopped retrying)
            floor = min(above)
            for stale in [c for c in above if c <= floor]:
                above.discard(stale)
            while floor + 1 in above:
                floor += 1
                above.discard(floor)
        self._floor[key] = floor
        if not above:
            self._above.pop(key, None)

    def snapshot(self) -> dict[tuple, tuple]:
        return {
            key: (floor, tuple(sorted(self._above.get(key, ()))))
            for key, floor in self._floor.items()
        }

    def merge(self, counters: dict[tuple, tuple]) -> None:
        """Adopt delivery knowledge from a view installation (union)."""
        for key, (floor_in, above_in) in counters.items():
            floor = self._floor.get(key, -1)
            above = set(self._above.get(key, ()))
            if floor_in > floor:
                floor = floor_in
                above = {c for c in above if c > floor}
            for counter in above_in:
                if counter > floor:
                    above.add(counter)
            while floor + 1 in above:
                floor += 1
                above.discard(floor)
            self._floor[key] = floor
            if above:
                self._above[key] = above
            else:
                self._above.pop(key, None)

    @staticmethod
    def merge_snapshots(snapshots: list[dict[tuple, tuple]]) -> dict[tuple, tuple]:
        merged = DuplicateFilter()
        for snapshot in snapshots:
            merged.merge(snapshot)
        return merged.snapshot()


class PendingRequests:
    """A daemon's own submitted-but-not-yet-delivered requests.

    Requests are resubmitted into the next configuration if a view change
    interrupted them; the duplicate filter makes resubmission safe.
    """

    def __init__(self) -> None:
        self._pending: dict[RequestId, OrderRequest] = {}

    def add(self, request: OrderRequest) -> None:
        self._pending[request.request_id] = request

    def resolve(self, request_id: RequestId) -> None:
        self._pending.pop(request_id, None)

    def outstanding(self) -> list[OrderRequest]:
        """Pending requests in submission (counter) order."""
        return [
            self._pending[rid]
            for rid in sorted(self._pending, key=lambda r: r.counter)
        ]

    def __len__(self) -> int:
        return len(self._pending)


def flush_union(
    sequenced_reports: list[dict[int, Sequenced]],
) -> list[Sequenced]:
    """The definitive sequenced-message tail of a dying configuration: the
    union of everything its surviving members received, in sequence order.

    Every member of the old configuration that moves to the new view
    delivers the suffix of this list beyond its own delivery point; since
    in-configuration delivery is contiguous from sequence 0, each member's
    delivered prefix coincides with a prefix of this union, which yields
    virtual synchrony.

    Requests that were submitted but never sequenced (or whose sequencing
    was seen by no survivor) are NOT given old-configuration sequence
    numbers here: the dead sequencer may have assigned those numbers to
    *other* requests that only it (or a member that did not survive into
    this view) delivered, so reusing the space would bind one ``(config,
    seq)`` to two different requests.  Such orphans are delivered at the
    head of the *new* configuration instead (see :func:`collect_orphans`).
    """
    union: dict[int, Sequenced] = {}
    for report in sequenced_reports:
        union.update(report)
    return [union[seq] for seq in sorted(union)]


def collect_orphans(
    tails: list[list[Sequenced]],
    unsequenced_reports: list[tuple[OrderRequest, ...]],
) -> list[OrderRequest]:
    """Requests reported as unsequenced that no flush tail contains —
    they are delivered, deterministically ordered by request id, at the
    head of the new configuration."""
    seen: set[RequestId] = {
        message.request.request_id for tail in tails for message in tail
    }
    orphans: dict[RequestId, OrderRequest] = {}
    for report in unsequenced_reports:
        for request in report:
            if request.request_id not in seen:
                orphans[request.request_id] = request
    return [orphans[rid] for rid in sorted(orphans, key=lambda r: r._key())]


__all__ = [
    "DuplicateFilter",
    "HoldbackBuffer",
    "PendingRequests",
    "collect_orphans",
    "flush_union",
]
