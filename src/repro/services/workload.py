"""Client behaviour drivers.

Workloads schedule realistic client activity on the simulator: VoD viewers
that occasionally skip/pause, students working through a topic, searchers
issuing refinement chains, and a Poisson session-arrival generator for
many-client load experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.client import ServiceClient, SessionHandle
from repro.core.service import ServiceCluster


@dataclass
class VodViewerWorkload:
    """A viewer of one movie: watches, occasionally skips or pauses.

    Args:
        skip_interval_mean: mean seconds between skip requests (exponential).
        pause_probability: chance that an interaction is a pause+resume
            instead of a skip.
        max_skip: largest forward/backward jump in frames.
    """

    cluster: ServiceCluster
    client: ServiceClient
    handle: SessionHandle
    rng: np.random.Generator
    skip_interval_mean: float = 10.0
    pause_probability: float = 0.2
    pause_duration: float = 1.0
    max_skip: int = 200
    movie_frames: int = 24 * 60
    active: bool = True
    interactions: int = 0

    def start(self) -> None:
        self._schedule_next()

    def stop(self) -> None:
        self.active = False

    def _schedule_next(self) -> None:
        delay = float(self.rng.exponential(self.skip_interval_mean))
        self.cluster.sim.schedule(max(0.05, delay), self._interact)

    def _interact(self) -> None:
        if not self.active or not self.client.is_up():
            return
        self.interactions += 1
        if self.rng.random() < self.pause_probability:
            self.client.send_update(self.handle, {"op": "pause"})
            self.cluster.sim.schedule(
                self.pause_duration,
                lambda: self.active
                and self.client.is_up()
                and self.client.send_update(self.handle, {"op": "resume"}),
            )
        else:
            target = int(self.rng.integers(0, self.movie_frames))
            self.client.send_update(self.handle, {"op": "skip", "to": target})
        self._schedule_next()


@dataclass
class StudentWorkload:
    """A student stepping through a topic: open, quiz answers, next."""

    cluster: ServiceCluster
    client: ServiceClient
    handle: SessionHandle
    rng: np.random.Generator
    n_objects: int
    think_time_mean: float = 2.0
    correct_probability: float = 0.6
    active: bool = True
    steps_taken: int = 0

    def start(self) -> None:
        self.client.send_update(self.handle, {"op": "open", "object": 0})
        self._schedule_next()

    def stop(self) -> None:
        self.active = False

    def _schedule_next(self) -> None:
        delay = float(self.rng.exponential(self.think_time_mean))
        self.cluster.sim.schedule(max(0.05, delay), self._step)

    def _step(self) -> None:
        if not self.active or not self.client.is_up():
            return
        self.steps_taken += 1
        current = self.steps_taken % self.n_objects
        if current % 3 == 2:  # quizzes sit at every third object
            answer = (
                int(self.rng.integers(0, 4))
                if self.rng.random() > self.correct_probability
                else None
            )
            self.client.send_update(
                self.handle,
                {"op": "answer", "object": current, "answer": answer},
            )
        self.client.send_update(self.handle, {"op": "next"})
        self._schedule_next()


@dataclass
class SearcherWorkload:
    """A searcher issuing a refinement chain over one corpus."""

    cluster: ServiceCluster
    client: ServiceClient
    handle: SessionHandle
    rng: np.random.Generator
    vocabulary: list[str]
    think_time_mean: float = 1.5
    active: bool = True
    queries_sent: int = 0

    def start(self) -> None:
        self._schedule_next()

    def stop(self) -> None:
        self.active = False

    def _schedule_next(self) -> None:
        delay = float(self.rng.exponential(self.think_time_mean))
        self.cluster.sim.schedule(max(0.05, delay), self._query)

    def _query(self) -> None:
        if not self.active or not self.client.is_up():
            return
        if self.queries_sent == 0 or self.rng.random() < 0.4:
            terms = self.rng.choice(self.vocabulary, size=1).tolist()
            update = {"op": "query", "terms": terms}
        elif self.rng.random() < 0.7:
            terms = self.rng.choice(self.vocabulary, size=1).tolist()
            update = {
                "op": "refine",
                "base": int(self.rng.integers(0, self.queries_sent)),
                "terms": terms,
            }
        else:
            update = {
                "op": "after",
                "base": int(self.rng.integers(0, self.queries_sent)),
                "year": 1995,
            }
        self.client.send_update(self.handle, update)
        self.queries_sent += 1
        self._schedule_next()


__all__ = [
    "SearcherWorkload",
    "StudentWorkload",
    "VodViewerWorkload",
]
