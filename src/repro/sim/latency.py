"""Message latency models.

A latency model maps a ``(sender, receiver)`` pair to a one-way delay for a
particular message.  Models draw jitter from a named RNG stream so that the
sequence of draws — and hence the entire simulation — is reproducible.

The random models draw ``_BLOCK`` delays at a time and hand them out in
order.  A numpy ``Generator`` fills an array from the same bit stream as
that many scalar calls, so the delays are bit-identical to scalar draws
(``tests/sim/test_rng_latency_trace.py`` pins the equivalence) at a
fraction of the per-call cost.  The price is the **one-consumer rule**: a
block-drawing model must be the only consumer of its generator, because
anything else drawing from it would see the stream a block ahead.
:class:`~repro.sim.rng.RngRegistry` gives every consumer its own named
stream, which is how ``src/`` builds them.
"""

from __future__ import annotations

from typing import Hashable, Protocol

import numpy as np

#: delays drawn per generator call by the random models
_BLOCK = 512


class LatencyModel(Protocol):
    """Anything that can produce a per-message one-way delay in seconds."""

    def sample(self, sender: Hashable, receiver: Hashable) -> float:
        """Return the delay for one message from ``sender`` to ``receiver``."""
        ...


class FixedLatency:
    """A constant one-way delay for every message."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative (got {delay})")
        self.delay = delay

    def sample(self, sender: Hashable, receiver: Hashable) -> float:
        return self.delay


class UniformLatency:
    """Uniformly distributed delay in ``[low, high]``.

    Draws in blocks: ``rng`` must have no other consumer (module
    docstring, the one-consumer rule).
    """

    def __init__(self, low: float, high: float, rng: np.random.Generator) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high (got {low}, {high})")
        self.low = low
        self.high = high
        self._rng = rng
        self._block: list[float] = []

    def sample(self, sender: Hashable, receiver: Hashable) -> float:
        block = self._block
        if not block:
            # reversed, so handing out in draw order is a pop from the end
            block = self._rng.uniform(self.low, self.high, _BLOCK).tolist()
            block.reverse()
            self._block = block
        return block.pop()


class LogNormalLatency:
    """Log-normal delay with a hard floor — a heavy-tailed WAN-ish model.

    ``median`` is the median delay; ``sigma`` controls the tail.  A floor of
    ``minimum`` keeps pathological near-zero draws from reordering the
    conceptual wire (FIFO is enforced by the network regardless).

    Draws in blocks: ``rng`` must have no other consumer (module
    docstring, the one-consumer rule).
    """

    def __init__(
        self,
        median: float,
        sigma: float,
        rng: np.random.Generator,
        minimum: float = 1e-4,
    ) -> None:
        if median <= 0 or sigma < 0:
            raise ValueError("median must be > 0 and sigma >= 0")
        self.median = median
        self.sigma = sigma
        self.minimum = minimum
        self._rng = rng
        self._block: list[float] = []

    def sample(self, sender: Hashable, receiver: Hashable) -> float:
        block = self._block
        if not block:
            draws = self._rng.lognormal(np.log(self.median), self.sigma, _BLOCK)
            block = np.maximum(draws, self.minimum).tolist()
            block.reverse()
            self._block = block
        return block.pop()


class PairwiseLatency:
    """Different latency models for specific sender/receiver pairs.

    Useful for mixed clusters (e.g. two LAN sites joined by a WAN link).
    Unlisted pairs use the ``default`` model.
    """

    def __init__(self, default: LatencyModel) -> None:
        self.default = default
        self._overrides: dict[tuple[Hashable, Hashable], LatencyModel] = {}

    def set_pair(
        self,
        sender: Hashable,
        receiver: Hashable,
        model: LatencyModel,
        symmetric: bool = True,
    ) -> None:
        self._overrides[(sender, receiver)] = model
        if symmetric:
            self._overrides[(receiver, sender)] = model

    def sample(self, sender: Hashable, receiver: Hashable) -> float:
        model = self._overrides.get((sender, receiver), self.default)
        return model.sample(sender, receiver)


def lan_latency(rng: np.random.Generator) -> UniformLatency:
    """A typical switched-LAN delay: 0.1–0.5 ms."""
    return UniformLatency(0.0001, 0.0005, rng)


def wan_latency(rng: np.random.Generator) -> LogNormalLatency:
    """A typical WAN delay: ~30 ms median with a heavy tail."""
    return LogNormalLatency(median=0.030, sigma=0.35, rng=rng, minimum=0.005)


__all__ = [
    "FixedLatency",
    "LatencyModel",
    "LogNormalLatency",
    "PairwiseLatency",
    "UniformLatency",
    "lan_latency",
    "wan_latency",
]
