"""The request/response service the ``rr_ladder`` and ``failover_cycle``
workloads drive: a constant-size context, one response per update.

The context is a frozen dataclass registered with the wire codec, so it
crosses real sockets inside propagation snapshots and handoffs exactly as a
service builder's own state would.  Every response carries a rolling digest
of all updates applied so far; the load generator recomputes it, which makes
"the answer is correct" checkable on every single response.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.application import RequestResponseApplication, ResponseBody
from repro.net.codec import register, registered_types

_MASK = 0xFFFFFFFF


def fold(digest: int, value: int) -> int:
    """One step of the rolling digest (shared by the app and the checker)."""
    return (digest * 1_000_003 + value + 1) & _MASK


@dataclass(frozen=True)
class RrState:
    unit_id: str
    applied: int = 0
    digest: int = 0


if RrState not in registered_types():
    register(RrState)


class RrApplication(RequestResponseApplication):
    """Apply the update, answer with the new digest.

    On a failure takeover the successor re-answers the latest request
    (``estimate_emitted`` says one response is uncertain, ``next_responses``
    regenerates it): a request/response client otherwise learns of the new
    primary only when its *next* request is answered, which would add the
    inter-arrival gap to every takeover sample.
    """

    def initial_state(self, unit_id: str, params: Any) -> RrState:
        return RrState(unit_id=unit_id)

    def apply_update(self, state: RrState, update: Any) -> RrState:
        return replace(
            state,
            applied=state.applied + 1,
            digest=fold(state.digest, int(update["v"])),
        )

    def _answer(self, state: RrState) -> ResponseBody:
        return ResponseBody(
            index=state.applied, klass="result", body=state.digest, size=1
        )

    def respond_to_update(
        self, state: RrState, update: Any
    ) -> tuple[RrState, list[ResponseBody]]:
        return state, [self._answer(state)]

    def estimate_emitted(self, state: RrState, elapsed: float) -> int:
        return 1 if state.applied else 0

    def next_responses(self, state: RrState) -> tuple[RrState, list[ResponseBody]]:
        return state, [self._answer(state)]
