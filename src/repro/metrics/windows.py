"""Interval algebra for window-restricted invariant checking.

The paper's guarantees are conditional: unique-primary holds only while
connectivity is good enough for the GCS to agree on membership (an
isolated minority serving into the void is an *accepted* risk, Section 4),
and responsiveness bounds only apply while no fault is actively tearing
the cluster apart.  The chaos oracles therefore evaluate the metrics from
:mod:`repro.metrics.session_audit` **inside clean windows** — the parts of
the run not covered by any disruption (partition, slowdown, ...) plus a
stabilization margin after each one.

Everything here works on lists of ``(start, end)`` float pairs.
"""

from __future__ import annotations

from repro.metrics.session_audit import primary_intervals

Interval = tuple[float, float]


def merge_intervals(spans: list[Interval]) -> list[Interval]:
    """Sort and coalesce overlapping/touching intervals; drops empties."""
    cleaned = sorted((s, e) for s, e in spans if e > s)
    merged: list[Interval] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def clip_intervals(spans: list[Interval], start: float, end: float) -> list[Interval]:
    """Restrict every interval to ``[start, end]``."""
    return merge_intervals(
        [(max(s, start), min(e, end)) for s, e in spans if min(e, end) > max(s, start)]
    )


def intersect_intervals(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Pairwise intersection of two interval sets."""
    a, b = merge_intervals(a), merge_intervals(b)
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        start = max(a[i][0], b[j][0])
        end = min(a[i][1], b[j][1])
        if end > start:
            out.append((start, end))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def subtract_intervals(base: list[Interval], remove: list[Interval]) -> list[Interval]:
    """Parts of ``base`` not covered by ``remove``."""
    base, remove = merge_intervals(base), merge_intervals(remove)
    out: list[Interval] = []
    for start, end in base:
        cursor = start
        for r_start, r_end in remove:
            if r_end <= cursor or r_start >= end:
                continue
            if r_start > cursor:
                out.append((cursor, r_start))
            cursor = max(cursor, r_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end))
    return out


def pad_intervals(spans: list[Interval], margin: float) -> list[Interval]:
    """Extend each interval by ``margin`` on both sides (then re-merge) —
    used to grow disruption windows by a stabilization allowance."""
    return merge_intervals([(s - margin, e + margin) for s, e in spans])


def total_length(spans: list[Interval]) -> float:
    return sum(e - s for s, e in merge_intervals(spans))


def max_length(spans: list[Interval]) -> float:
    merged = merge_intervals(spans)
    return max((e - s for s, e in merged), default=0.0)


# ----------------------------------------------------------------------
# coverage spans derived from role intervals
# ----------------------------------------------------------------------
def _coverage_spans(
    intervals: dict[str, list[Interval]], threshold: int
) -> list[Interval]:
    """Spans during which at least ``threshold`` intervals are active."""
    events: list[tuple[float, int]] = []
    for spans in intervals.values():
        for start, end in spans:
            if end > start:
                events.append((start, 1))
                events.append((end, -1))
    events.sort()
    active = 0
    out: list[Interval] = []
    opened: float | None = None
    for time, delta in events:
        active += delta
        if active >= threshold and opened is None:
            opened = time
        elif active < threshold and opened is not None:
            out.append((opened, time))
            opened = None
    if opened is not None and events:
        out.append((opened, events[-1][0]))
    return merge_intervals(out)


def multi_primary_spans(cluster, session_id: str) -> list[Interval]:
    """Spans during which >= 2 servers held the primary role."""
    return _coverage_spans(primary_intervals(cluster, session_id), threshold=2)


def multi_primary_time(cluster, session_id: str) -> float:
    """Total time during which two or more servers simultaneously held the
    primary role for the session (design goal 1 violated)."""
    return float(total_length(multi_primary_spans(cluster, session_id)))


def multi_primary_time_within(
    cluster, session_id: str, windows: list[Interval]
) -> float:
    """Role-overlap time restricted to the given (clean) windows."""
    return total_length(
        intersect_intervals(multi_primary_spans(cluster, session_id), windows)
    )


def no_primary_spans(
    cluster, session_id: str, start: float, end: float
) -> list[Interval]:
    """Spans of ``[start, end]`` with no live primary for the session."""
    covered = _coverage_spans(primary_intervals(cluster, session_id), threshold=1)
    return subtract_intervals([(start, end)], covered)


def no_primary_time(cluster, session_id: str, start: float, end: float) -> float:
    """Total time in [start, end] during which no live server held the
    primary role (loss of service risk)."""
    return float(total_length(no_primary_spans(cluster, session_id, start, end)))


def silence_spans(times: list[float], start: float, end: float) -> list[Interval]:
    """Gaps of ``[start, end]`` containing none of the event ``times`` —
    for response timestamps these are the client-visible silences.

    Deliberately NOT merged: consecutive spans share an endpoint (the
    event between them), and coalescing them would erase the events."""
    inside = sorted(t for t in times if start <= t <= end)
    edges = [start] + inside + [end]
    return [(a, b) for a, b in zip(edges, edges[1:]) if b > a]


def max_silence_within(
    times: list[float], windows: list[Interval]
) -> float:
    """Longest contiguous response silence measured inside the clean
    windows.  A silence spanning a disruption is chopped at the window
    edges — the disrupted part is excused, only the clean residue counts."""
    if not windows:
        return 0.0
    hull_start = min(s for s, _ in windows)
    hull_end = max(e for _, e in windows)
    best = 0.0
    # intersect span-by-span: adjacent silences must not merge across the
    # response that separates them
    for span in silence_spans(times, hull_start, hull_end):
        if span[1] - span[0] <= best:
            continue  # its clean pieces lie inside it: none can be longer
        pieces = intersect_intervals([span], windows)
        best = max(best, max_length(pieces))
    return best


__all__ = [
    "Interval",
    "clip_intervals",
    "intersect_intervals",
    "max_length",
    "max_silence_within",
    "merge_intervals",
    "multi_primary_spans",
    "multi_primary_time",
    "multi_primary_time_within",
    "no_primary_spans",
    "no_primary_time",
    "pad_intervals",
    "silence_spans",
    "subtract_intervals",
    "total_length",
]
