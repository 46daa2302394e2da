"""The plug-in protocol a concrete service implements.

The paper's framework is a *template*: the fault-tolerance machinery is
generic, and a specific service (VoD, distance education, search) supplies
only its content semantics.  A :class:`ServiceApplication` is a pure,
deterministic state machine over an application-defined session state:

* session state is created from the start-session parameters,
* client context updates transform it (functionally),
* responses are pulled from it either on a timer (streaming services such
  as VoD) or as an immediate reaction to an update (request/response
  services such as the search example).

All functions are *functional* (state in, state out) so the framework can
snapshot, replicate, and replay contexts without the application's help.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, runtime_checkable

from repro.wiretypes import wire


@wire(20)
@dataclass(frozen=True, slots=True)
class ResponseBody:
    """One application response.

    Attributes:
        index: application-level position of this response within the
            session's stream (frame number, object number, result number);
            indices identify duplicates across retransmissions.
        klass: application class of the response (e.g. MPEG ``"I"``,
            ``"P"``, ``"B"``; or ``"result"``) — the selective uncertainty
            policy dispatches on it.
        body: opaque payload.
        size: abstract byte count for load accounting.
    """

    index: int
    klass: str
    body: Any
    size: int = 1


@runtime_checkable
class ServiceApplication(Protocol):
    """Content semantics of one service, plugged into the framework."""

    def initial_state(self, unit_id: str, params: Any) -> Any:
        """Create the session state for a new session on ``unit_id``."""
        ...

    def apply_update(self, state: Any, update: Any) -> Any:
        """Apply one client context update; returns the new state."""
        ...

    def respond_to_update(self, state: Any, update: Any) -> tuple[Any, list[ResponseBody]]:
        """Immediate responses triggered by an update (may be empty)."""
        ...

    def response_interval(self, state: Any) -> float | None:
        """Streaming period in seconds, or ``None`` for purely
        request/response services."""
        ...

    def next_responses(self, state: Any) -> tuple[Any, list[ResponseBody]]:
        """Produce the next timer-driven responses (advances the state)."""
        ...

    def estimate_emitted(self, state: Any, elapsed: float) -> int:
        """Roughly how many responses a primary would have emitted from
        ``state`` over ``elapsed`` seconds (bounds the uncertainty window
        on failover)."""
        ...

    def advance(self, state: Any, count: int) -> Any:
        """Skip ``count`` responses without emitting them (used by the
        skip-style uncertainty policies)."""
        ...

    def is_finished(self, state: Any) -> bool:
        """True when the session has naturally completed."""
        ...


class RequestResponseApplication:
    """Convenience base for non-streaming services.

    Subclasses implement :meth:`initial_state`, :meth:`apply_update` and
    :meth:`respond_to_update`; the streaming-related methods default to
    no-ops.
    """

    def response_interval(self, state: Any) -> float | None:
        return None

    def next_responses(self, state: Any) -> tuple[Any, list[ResponseBody]]:
        return state, []

    def estimate_emitted(self, state: Any, elapsed: float) -> int:
        return 0

    def advance(self, state: Any, count: int) -> Any:
        return state

    def is_finished(self, state: Any) -> bool:
        return False


__all__ = ["RequestResponseApplication", "ResponseBody", "ServiceApplication"]
