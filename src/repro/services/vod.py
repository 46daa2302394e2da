"""Video-on-demand: the paper's running example (and the service of [2]).

The session context is the playback position within one movie, the
requested rate, and the pause state.  Frames stream on a timer; context
updates let the client skip ("skip to the start of scene 4"), pause,
resume, and change rate — exactly the operations Sections 2–3 describe.

Frames carry their MPEG class (I/P/B) so the selective uncertainty policy
can prefer duplicating I-frames over losing them (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.core.application import ResponseBody
from repro.services.content import Movie
from repro.wiretypes import wire

FRAME_SIZE = {"I": 30, "P": 10, "B": 5}


@wire(34)
@dataclass(frozen=True, slots=True)
class VodSessionState:
    """Immutable VoD session context (frozen => snapshots are cheap and
    can never alias the live state)."""

    unit_id: str
    position: int = 0
    rate: float = 24.0
    paused: bool = False


class VodApplication:
    """The VoD plug-in: one application instance serves many movies."""

    def __init__(self, movies: dict[str, Movie]) -> None:
        self.movies = dict(movies)

    def movie(self, unit_id: str) -> Movie:
        return self.movies[unit_id]

    # ------------------------------------------------------------------
    # ServiceApplication
    # ------------------------------------------------------------------
    def initial_state(self, unit_id: str, params: Any) -> VodSessionState:
        params = params or {}
        movie = self.movies[unit_id]
        return VodSessionState(
            unit_id=unit_id,
            position=int(params.get("start", 0)),
            rate=float(params.get("rate", movie.frame_rate)),
            paused=bool(params.get("paused", False)),
        )

    def apply_update(self, state: VodSessionState, update: Any) -> VodSessionState:
        op = update.get("op")
        if op == "skip":
            movie = self.movies[state.unit_id]
            target = max(0, min(int(update["to"]), movie.n_frames))
            return replace(state, position=target)
        if op == "pause":
            return replace(state, paused=True)
        if op == "resume":
            return replace(state, paused=False)
        if op == "rate":
            return replace(state, rate=max(0.1, float(update["value"])))
        return state

    def respond_to_update(self, state, update):
        return state, []

    def response_interval(self, state: VodSessionState) -> float | None:
        if state.paused:
            return None
        return 1.0 / state.rate

    def next_responses(self, state: VodSessionState):
        movie = self.movies[state.unit_id]
        if state.paused or state.position >= movie.n_frames:
            return state, []
        frame = state.position
        klass = movie.frame_class(frame)
        response = ResponseBody(
            index=frame,
            klass=klass,
            body=("frame", state.unit_id, frame),
            size=FRAME_SIZE.get(klass, 10),
        )
        # spelled out: this runs once per frame, and ``dataclasses.replace``
        # costs several times the constructor
        advanced = VodSessionState(
            unit_id=state.unit_id,
            position=frame + 1,
            rate=state.rate,
            paused=state.paused,
        )
        return advanced, [response]

    def estimate_emitted(self, state: VodSessionState, elapsed: float) -> int:
        if state.paused:
            return 0
        movie = self.movies[state.unit_id]
        remaining = max(0, movie.n_frames - state.position)
        return min(remaining, int(elapsed * state.rate))

    def advance(self, state: VodSessionState, count: int) -> VodSessionState:
        movie = self.movies[state.unit_id]
        return replace(
            state, position=min(movie.n_frames, state.position + count)
        )

    def is_finished(self, state: VodSessionState) -> bool:
        movie = self.movies[state.unit_id]
        return state.position >= movie.n_frames


__all__ = ["FRAME_SIZE", "VodApplication", "VodSessionState"]
