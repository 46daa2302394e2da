"""Unit tests for the interval algebra behind window-restricted oracles."""

import random

import pytest

from repro.metrics.windows import (
    clip_intervals,
    intersect_intervals,
    max_length,
    max_silence_within,
    merge_intervals,
    pad_intervals,
    silence_spans,
    subtract_intervals,
    total_length,
)


class TestMerge:
    def test_coalesces_overlaps_and_touches(self):
        assert merge_intervals([(3.0, 5.0), (1.0, 2.0), (2.0, 4.0)]) == [(1.0, 5.0)]

    def test_keeps_disjoint_spans(self):
        assert merge_intervals([(5.0, 6.0), (1.0, 2.0)]) == [(1.0, 2.0), (5.0, 6.0)]

    def test_drops_empty_and_inverted(self):
        assert merge_intervals([(2.0, 2.0), (4.0, 3.0)]) == []


class TestClip:
    def test_restricts_to_range(self):
        spans = [(0.0, 3.0), (5.0, 9.0)]
        assert clip_intervals(spans, 2.0, 6.0) == [(2.0, 3.0), (5.0, 6.0)]

    def test_fully_outside_vanishes(self):
        assert clip_intervals([(0.0, 1.0)], 2.0, 3.0) == []


class TestIntersect:
    def test_pairwise_overlap(self):
        a = [(0.0, 4.0), (6.0, 10.0)]
        b = [(3.0, 7.0)]
        assert intersect_intervals(a, b) == [(3.0, 4.0), (6.0, 7.0)]

    def test_disjoint_sets_empty(self):
        assert intersect_intervals([(0.0, 1.0)], [(2.0, 3.0)]) == []


class TestSubtract:
    def test_punches_holes(self):
        base = [(0.0, 10.0)]
        remove = [(2.0, 3.0), (5.0, 7.0)]
        assert subtract_intervals(base, remove) == [
            (0.0, 2.0),
            (3.0, 5.0),
            (7.0, 10.0),
        ]

    def test_full_cover_leaves_nothing(self):
        assert subtract_intervals([(1.0, 2.0)], [(0.0, 5.0)]) == []

    def test_removal_overhanging_edges(self):
        assert subtract_intervals([(2.0, 8.0)], [(0.0, 3.0), (7.0, 9.0)]) == [
            (3.0, 7.0)
        ]


class TestPadAndLengths:
    def test_pad_grows_and_remerges(self):
        # padding makes the two disruptions touch, so they coalesce
        assert pad_intervals([(2.0, 3.0), (4.0, 5.0)], 0.5) == [(1.5, 5.5)]

    def test_total_and_max_length(self):
        spans = [(0.0, 2.0), (5.0, 6.0)]
        assert total_length(spans) == pytest.approx(3.0)
        assert max_length(spans) == pytest.approx(2.0)
        assert max_length([]) == 0.0


class TestSilence:
    def test_spans_between_events(self):
        spans = silence_spans([2.0, 5.0], 0.0, 10.0)
        assert spans == [(0.0, 2.0), (2.0, 5.0), (5.0, 10.0)]

    def test_spans_not_merged_across_events(self):
        # adjacent silences share the event between them; coalescing would
        # erase the response and fake a longer silence
        spans = silence_spans([5.0], 0.0, 10.0)
        assert spans == [(0.0, 5.0), (5.0, 10.0)]
        assert max((e - s for s, e in spans)) == 5.0

    def test_events_outside_range_ignored(self):
        assert silence_spans([-1.0, 20.0], 0.0, 4.0) == [(0.0, 4.0)]

    def test_max_silence_chopped_at_window_edges(self):
        # a 6-second silence spanning a disruption: only its clean residue
        # (1s before + 2s after the excused hole) may count
        times = [2.0, 8.0]
        windows = [(0.0, 3.0), (6.0, 10.0)]
        assert max_silence_within(times, windows) == pytest.approx(2.0)

    def test_max_silence_no_windows_is_zero(self):
        assert max_silence_within([1.0], []) == 0.0

    def test_max_silence_simple(self):
        assert max_silence_within([2.0, 3.0], [(0.0, 10.0)]) == pytest.approx(7.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_max_silence_skips_only_spans_that_cannot_win(self, seed):
        # the scan passes over a silence no longer than the best so far;
        # the answer is still the best clean piece of every silence
        rng = random.Random(seed)
        times = [rng.uniform(0.0, 30.0) for _ in range(rng.randrange(1, 60))]
        edges = sorted(rng.uniform(0.0, 30.0) for _ in range(2 * rng.randrange(1, 5)))
        windows = list(zip(edges[::2], edges[1::2]))
        hull = (min(s for s, _ in windows), max(e for _, e in windows))
        expected = max(
            (
                max_length(intersect_intervals([span], windows))
                for span in silence_spans(times, *hull)
            ),
            default=0.0,
        )
        assert max_silence_within(times, windows) == expected
