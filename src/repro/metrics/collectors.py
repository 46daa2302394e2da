"""Summary statistics helpers."""

from __future__ import annotations

import math


def summarize(values) -> dict[str, float]:
    """Mean / std / min / max / median of a value list (NaNs when empty)."""
    values = sorted(float(v) for v in values)
    if not values:
        nan = math.nan
        return {"n": 0, "mean": nan, "std": nan, "min": nan, "max": nan, "p50": nan}
    n = len(values)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
    mid = n // 2
    median = values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2
    return {
        "n": n,
        "mean": mean,
        "std": math.sqrt(variance),
        "min": values[0],
        "max": values[-1],
        "p50": median,
    }


#: Message kinds that exist purely to establish liveness/membership: the
#: heartbeats.  Everything else (ordering, view formation, application
#: payloads) is data traffic.
_LIVENESS_KINDS = frozenset({"gcs.heartbeat"})


def is_liveness_kind(kind: str) -> bool:
    """True for message kinds carrying only liveness/membership signal."""
    return kind in _LIVENESS_KINDS


def split_liveness(per_kind: dict) -> tuple[int, int]:
    """Split a per-kind counter mapping into ``(liveness, data)`` totals.

    Accepts any ``{kind: count}`` mapping (frames or bytes); used by the
    ``--stats-json`` reports and the membership bench to show membership
    overhead separately from useful work.
    """
    liveness = 0
    data = 0
    for kind in sorted(per_kind):
        if is_liveness_kind(kind):
            liveness += per_kind[kind]
        else:
            data += per_kind[kind]
    return liveness, data


__all__ = ["is_liveness_kind", "split_liveness", "summarize"]
