"""The ledger: a diagnostic service that makes each lost update visible.

A session's state is the *set of update counters it has absorbed*: every
update ``{"counter": c}`` adds ``c``.  A counter the client was promised
(sent, and not seen to fail) that no surviving context holds is exactly
one lost context update, the event the paper's Section 4 prices.  The
Section-4 loss run (:func:`repro.experiments.common.ledger_churn`, behind
E1, E7 and E11) serves this unit and sums :func:`promised_and_lost` over
its sessions.

Which context survives is the server's decision, not this module's:
:meth:`~repro.core.server.FrameworkServer.freshest_context` is the one
reading of a session's primary, backup and unit-database contexts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.core.application import RequestResponseApplication, ResponseBody
from repro.wiretypes import wire

if TYPE_CHECKING:
    from repro.core.client import SessionHandle
    from repro.core.service import ServiceCluster


@wire(42)
@dataclass(frozen=True, slots=True)
class LedgerState:
    """The set of update counters this session has absorbed."""

    unit_id: str
    counters: frozenset[int] = frozenset()


class LedgerApplication(RequestResponseApplication):
    """The ledger service: records every update's counter, answers
    nothing and streams nothing."""

    def initial_state(self, unit_id: str, params: Any) -> LedgerState:
        return LedgerState(unit_id=unit_id)

    def apply_update(self, state: LedgerState, update: Any) -> LedgerState:
        counter = update.get("counter")
        if counter is None:
            return state
        return replace(state, counters=state.counters | {int(counter)})

    def respond_to_update(
        self, state: LedgerState, update: Any
    ) -> tuple[LedgerState, list[ResponseBody]]:
        return state, []


def surviving_counters(cluster: ServiceCluster, handle: SessionHandle) -> frozenset[int]:
    """The counters in the session's current serving context: the live
    primary's, or with no primary the freshest context any live server can
    rebuild (the first such server in the cluster's order on a tie)."""
    live = [server for server in cluster.servers.values() if server.is_up()]
    for server in live:
        runtime = server.primaries.get(handle.session_id)
        if runtime is not None:
            serving: LedgerState = runtime.ctx.app_state
            return serving.counters
    contexts = [server.freshest_context(handle.unit_id, handle.session_id) for server in live]
    held = [context for context in contexts if context is not None]
    if not held:
        return frozenset()
    freshest: LedgerState = max(held, key=lambda context: context.freshness_key()).app_state
    return freshest.counters


def promised_and_lost(cluster: ServiceCluster, handle: SessionHandle) -> tuple[int, int]:
    """How many counters the session's client was promised (sent, less
    those it saw fail) and how many of those no surviving context holds."""
    failed = set(handle.failed_update_counters)
    promised = {counter for _, counter, _ in handle.updates_sent} - failed
    return len(promised), len(promised - surviving_counters(cluster, handle))


__all__ = ["LedgerApplication", "LedgerState", "promised_and_lost", "surviving_counters"]
