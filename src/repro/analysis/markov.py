"""Markov-chain availability models.

The simple steady-state model in :mod:`repro.analysis.availability`
predicts the *fraction of time* all replicas are down.  For sessions the
sharper question (E5) is transient: what is the probability that, during a
session of length ``T``, the replica set **ever** hits the all-down state
— because with volatile unit databases that event is fatal, not just an
outage.

We model the number of down replicas as a birth–death chain:

* state ``k`` (``0 <= k <= n``): ``k`` replicas down;
* failure transitions ``k -> k+1`` at rate ``(n-k)·λ`` (independent
  exponential lifetimes);
* repair transitions ``k -> k-1`` at rate ``k·μ`` (independent repair) or
  ``μ`` (a single repairman — restarts serialized through one operator);
* for hitting probabilities, state ``n`` is absorbing.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm


def _generator(
    n: int, failure_rate: float, repair_rate: float,
    absorbing_all_down: bool, single_repairman: bool,
) -> np.ndarray:
    q = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        if k == n and absorbing_all_down:
            continue  # absorbing: the row stays zero
        if k < n:
            q[k, k + 1] = (n - k) * failure_rate  # another replica fails
        if k > 0:
            q[k, k - 1] = repair_rate if single_repairman else k * repair_rate
        q[k, k] = -q[k].sum()
    return q


def all_down_hitting_probability(
    n: int,
    failure_rate: float,
    repair_rate: float,
    horizon: float,
    single_repairman: bool = False,
) -> float:
    """P(the all-down state is reached within ``horizon`` seconds),
    starting from everything up.

    This is the per-session probability of *permanent* loss in E5's
    volatile-database world: one visit to all-down erases the session.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if failure_rate < 0 or repair_rate <= 0 or horizon < 0:
        raise ValueError("rates must be positive and horizon non-negative")
    q = _generator(
        n, failure_rate, repair_rate,
        absorbing_all_down=True, single_repairman=single_repairman,
    )
    transition = expm(q * horizon)
    return float(min(1.0, max(0.0, transition[0, n])))


def steady_state_distribution(
    n: int,
    failure_rate: float,
    repair_rate: float,
    single_repairman: bool = False,
) -> np.ndarray:
    """Long-run distribution over the number of down replicas.

    With independent repair this reduces to the binomial with
    ``p = λ/(λ+μ)``; with a single repairman the tail is heavier — the
    cost of serializing restarts through one operator.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # birth-death detailed balance: pi_{k+1} = pi_k * up_k / down_{k+1}
    pi = [1.0]
    for k in range(n):
        up = (n - k) * failure_rate
        down = repair_rate if single_repairman else (k + 1) * repair_rate
        pi.append(pi[-1] * up / down)
    pi = np.array(pi)
    return pi / pi.sum()


def steady_state_all_down(
    n: int,
    failure_rate: float,
    repair_rate: float,
    single_repairman: bool = False,
) -> float:
    """Long-run fraction of time with every replica down."""
    return float(
        steady_state_distribution(
            n, failure_rate, repair_rate, single_repairman
        )[n]
    )


__all__ = [
    "all_down_hitting_probability",
    "steady_state_all_down",
    "steady_state_distribution",
]
