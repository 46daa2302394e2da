"""The slice statistics and the yardstick: a slow host must not move them."""

import pytest

from bench.stats import calm_level, slice_bounds, slice_medians


def test_calm_level_ignores_a_slow_burst():
    calm = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00]
    assert calm_level(calm) == (0.97 + 0.98) / 2
    # five of eight slices hit by a burst that doubles their cost
    hit = [2.0, 2.1, 0.98, 1.9, 0.99, 2.2, 0.97, 2.0]
    assert calm_level(hit) == calm_level(calm)
    assert calm_level([3.0]) == 3.0


def test_slices_are_cut_like_the_cpu_marks():
    assert slice_bounds(10.0, 12.2, 0.5) == pytest.approx([10.0, 10.55, 11.1, 11.65, 12.2])
    samples = [(9.9, 100.0), (10.0, 1.0), (10.5, 3.0), (10.7, 5.0), (12.2, 7.0), (12.3, 100.0)]
    # the sample before the window and the one after it are left out; the
    # empty slices too; the last instant belongs to the last slice
    assert slice_medians(samples, 10.0, 12.2, 0.5) == [2.0, 5.0, 7.0]


def test_the_yardstick_keeps_its_size_and_scales_time():
    import gc

    from bench.refload import NOMINAL_COST, RefLoad, normalise

    reference = RefLoad()
    gc.collect()
    tracked = len(gc.get_objects())
    sizes = [len(table) for table in reference._tables]
    assert all(reference.cost() > 0 for _ in range(20))
    assert [len(table) for table in reference._tables] == sizes
    # all it keeps that the collector could walk is its 256 heap entries
    assert len(gc.get_objects()) <= tracked + 300
    # a host running half as fast doubles both: the normalised cost holds
    assert normalise(2 * 0.8, 2 * NOMINAL_COST) == normalise(0.8, NOMINAL_COST) == 0.8
