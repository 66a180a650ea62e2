import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from ktmix.measure import (
    CountingMeasure,
    Interval,
    LebesgueMeasure,
    OutOfSupportError,
)
from ktmix.estimator import MixtureEstimator, level_alphabet
from ktmix.partition import CustomPartition, HistogramSequence

INF = math.inf
UNIT = Interval(0.0, 1.0, True, False)


class TestCutPoints:
    def test_level_one_is_the_center(self):
        h = HistogramSequence(0.0, 1.0, max_level=3)
        assert list(h.level_map(1).cuts) == [0.0]

    def test_level_two(self):
        h = HistogramSequence(0.0, 1.0, max_level=3)
        assert list(h.level_map(2).cuts) == [-1.0, 0.0, 1.0]

    def test_level_three(self):
        h = HistogramSequence(0.0, 1.0, max_level=3)
        assert list(h.level_map(3).cuts) == [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]

    def test_counts_and_monotonicity(self):
        h = HistogramSequence(0.3, 0.7, max_level=12)
        for k in range(1, 13):
            cuts = h.level_map(k).cuts
            assert cuts.size == 2**k - 1
            assert np.all(np.diff(cuts) > 0)

    def test_level_out_of_range(self):
        h = HistogramSequence(0.0, 1.0, max_level=3)
        with pytest.raises(ValueError):
            h.level_map(-1)
        with pytest.raises(ValueError):
            h.level_map(4)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            HistogramSequence(0.0, 0.0)
        with pytest.raises(ValueError):
            HistogramSequence(0.0, -1.0)


def level_by_level_cuts(center, scale, max_level):
    """Every level's cut points, each built from the level before as the family is defined.

    Level k + 1 keeps level k's cuts in its odd slots, puts the midpoints of
    level k's bounded cells between them and center -/+ k*scale at its ends.
    """
    levels = [np.empty(0)]
    if max_level >= 1:
        levels.append(np.array([center]))
    for k in range(1, max_level):
        prev = levels[-1]
        level = np.empty(2 ** (k + 1) - 1)
        level[0], level[-1] = center - k * scale, center + k * scale
        level[1:-1:2] = prev
        level[2:-2:2] = 0.5 * (prev[:-1] + prev[1:])
        levels.append(level)
    return levels


class TestDyadicLevels:
    """Only the finest level owns cut points; coarser levels and ancestors are index arithmetic."""

    @pytest.mark.parametrize("center, scale", [
        (0.0, 1.0), (0.3, 0.7), (-3.7, 0.01),
        (1e6, math.ulp(1e6) * 2.0**14),    # finest inner cells one ulp wide at depth 16
    ])
    @pytest.mark.parametrize("depth", range(17))
    def test_levels_are_the_level_by_level_cuts_bit_for_bit(self, depth, center, scale):
        h = HistogramSequence(center, scale, max_level=depth)
        want = level_by_level_cuts(center, scale, depth)
        assert [h.level_map(k).cuts.tobytes() for k in range(depth + 1)] == [
            level.tobytes() for level in want]
        # The ancestors of every finest cell: the level-k cell holding its upper end.
        uppers = np.append(want[-1], INF)
        for cuts, raws in zip(want, h.ancestors(np.arange(uppers.size))):
            np.testing.assert_array_equal(raws, np.searchsorted(cuts, uppers, side="left"))

    def test_only_the_finest_level_owns_cut_points(self):
        depth, finest_bytes = 20, 8 * (2**20 - 1)
        tracemalloc.start()
        try:
            h = HistogramSequence(0, 1, max_level=depth)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= 1.05 * finest_bytes
        # Building level k + 1 keeps level k alive, half the size: 1.5 finest arrays.
        assert peak <= 1.75 * finest_bytes
        assert_levels_are_views_of_the_finest(h)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_keeps_one_cut_array(self, clone):
        h = HistogramSequence(0.3, 0.7, support=Interval(-1.0, 1.0), max_level=6)
        c = clone(h)                           # h's lookup holds a memoryview, which does not copy
        assert_levels_are_views_of_the_finest(c)
        assert c.max_level == h.max_level
        for k in range(7):
            assert c.level_map(k).cuts.tobytes() == h.level_map(k).cuts.tobytes()
        assert c.cells_of(0.5) == h.cells_of(0.5)
        assert c.in_support(0.5) and not c.in_support(1.5)


def assert_levels_are_views_of_the_finest(h):
    finest = h.level_map(h.max_level).cuts
    assert not finest.flags.writeable
    for k in range(h.max_level):
        cuts = h.level_map(k).cuts
        assert not cuts.flags.owndata and not cuts.flags.writeable
        assert k == 0 or np.shares_memory(cuts, finest)


def alphabet_masses(partition, measure, k):
    """(raw_to_alpha as a list, reference masses of the alphabet cells) at level k."""
    raw_to_alpha, log_eta = level_alphabet(partition, measure, k)
    return raw_to_alpha.tolist(), np.exp(log_eta).tolist()


class TestCells:
    def test_full_line_level_two(self):
        h = HistogramSequence(0.0, 1.0, max_level=2)
        assert list(h.level_map(2).cuts) == [-1.0, 0.0, 1.0]
        # (-inf, -1], (-1, 0], (0, 1], (1, inf)
        assert alphabet_masses(h, LebesgueMeasure(), 2) == ([0, 1, 2, 3], [INF, 1.0, 1.0, INF])

    def test_level_zero_covers_support(self):
        h = HistogramSequence(0.5, 0.25, support=UNIT, max_level=2)
        assert h.level_map(0).kept_count == 1
        assert alphabet_masses(h, LebesgueMeasure(UNIT), 0) == ([0], [1.0])

    def test_bounded_support_level_one(self):
        h = HistogramSequence(0.5, 0.25, support=UNIT, max_level=1)
        assert alphabet_masses(h, LebesgueMeasure(UNIT), 1) == ([0, 1], [0.5, 0.5])

    def test_natural_support_level_two(self):
        # center 1, scale 1 over the naturals: cells hold {}, {1}, {2}, {3,4,...}
        m = CountingMeasure.harmonic_naturals()
        h = HistogramSequence(1.0, 1.0, support=m, max_level=2)
        raw_to_alpha, masses = alphabet_masses(h, m, 2)
        assert raw_to_alpha == [-1, 0, 1, 2]
        assert masses == pytest.approx([1 / 2, 1 / 6, 1 / 3], abs=1e-15)

    def test_cell_count_bound(self):
        h = HistogramSequence(0.0, 1.0, max_level=10)
        for k in range(11):
            assert h.level_map(k).kept_count == 2**k
            assert len(alphabet_masses(h, LebesgueMeasure(), k)[1]) == 2**k
            assert len(alphabet_masses(h, LebesgueMeasure(UNIT), k)[1]) <= 2**k


class TestCellOf:
    """The cell a sample lands in: the right-closed convention and the support gate."""

    def test_examples(self):
        h = HistogramSequence(0.0, 1.0, max_level=2)
        for y, cell in ((0.3, "2"),    # (0, 1]
                        (-5.0, "0"),   # leftmost tail
                        (0.0, "1")):   # (-1, 0], right-closed boundary
            sequential = MixtureEstimator(h, LebesgueMeasure())
            batch = MixtureEstimator(h, LebesgueMeasure())
            sequential.observe(y)
            batch.observe_many([y])
            for est in (sequential, batch):
                assert est.export_state()["levels"][2]["counts"] == {cell: 1}

    def test_outside_support_raises(self):
        h = HistogramSequence(0.5, 0.25, support=UNIT, max_level=2)
        assert not h.in_support(1.5)
        assert not h.in_support(1.0)  # support excludes its upper end
        assert h.in_support_many([1.5, 1.0, 0.0]).tolist() == [False, False, True]
        est = MixtureEstimator(h, LebesgueMeasure(UNIT))
        for y in (1.5, 1.0):
            with pytest.raises(OutOfSupportError):
                est.observe(y)
            with pytest.raises(OutOfSupportError):
                est.observe_many([0.5, y])

    def test_non_integer_outside_lattice_support(self):
        m = CountingMeasure.unit_naturals()
        h = HistogramSequence(1.0, 1.0, support=m, max_level=3)
        assert not h.in_support(2.5)
        with pytest.raises(OutOfSupportError):
            MixtureEstimator(h, m).observe(2.5)

    def test_consistency_with_cells(self):
        # The raw cell a left-sided cut search finds is the (lows, highs] cell
        # that level_alphabet prices.
        rng = np.random.default_rng(123)
        h = HistogramSequence(0.2, 1.3, max_level=8)
        ys = rng.normal(0, 3, size=10_000)
        ks = rng.integers(0, 9, size=10_000)
        for k in range(9):
            cuts = h.level_map(k).cuts
            y = ys[ks == k]
            raw = np.searchsorted(cuts, y, side="left")
            assert np.all(np.append(-INF, cuts)[raw] < y)
            assert np.all(y <= np.append(cuts, INF)[raw])


class TestRefinement:
    def test_histogram_sequence_refines(self):
        assert HistogramSequence(0.0, 1.0, max_level=8).verify_refinement()
        assert HistogramSequence(-3.7, 0.01, max_level=8).verify_refinement()
        bounded = HistogramSequence(0.5, 0.25, support=UNIT, max_level=8)
        assert bounded.verify_refinement()
        lattice = HistogramSequence(1.0, 1.0, support=CountingMeasure.unit_naturals(), max_level=8)
        assert lattice.verify_refinement()

    def test_missing_cut_breaks_refinement(self):
        base = HistogramSequence(0.0, 1.0, max_level=4)
        levels = [list(base.level_map(k).cuts) for k in range(1, 5)]
        levels[2].remove(0.0)  # drop a level-2 cut from level 3 only
        assert not CustomPartition(levels).verify_refinement()

    def test_dyadic_splits_of_unit_interval(self):
        levels = []
        for j in range(1, 7):
            step = 2.0 ** -j
            levels.append([i * step for i in range(1, 2**j)])
        part = CustomPartition(levels, support=UNIT)
        assert part.verify_refinement()
        assert part.level_map(6).kept_count == 64
        assert alphabet_masses(part, LebesgueMeasure(UNIT), 6)[1] == pytest.approx(
            [1 / 64] * 64, rel=1e-12)

    def test_union_of_cells_has_full_mass(self):
        cases = [
            (LebesgueMeasure(UNIT),
             HistogramSequence(0.5, 0.25, support=UNIT, max_level=6)),
            (CountingMeasure.harmonic_naturals(),
             HistogramSequence(1.0, 1.0, support=CountingMeasure.harmonic_naturals(), max_level=6)),
        ]
        for measure, part in cases:
            (whole,) = alphabet_masses(part, measure, 0)[1]
            assert whole == 1.0
            for k in range(7):
                assert math.fsum(alphabet_masses(part, measure, k)[1]) == pytest.approx(
                    whole, rel=1e-12)


class TestCustomPartition:
    def test_rejects_unsorted_cuts(self):
        with pytest.raises(ValueError):
            CustomPartition([[1.0, 0.5]])

    def test_rejects_non_finite_cuts(self):
        with pytest.raises(ValueError):
            CustomPartition([[0.0], [0.0, INF]])

    def test_support_must_be_an_interval_or_a_measure(self):
        with pytest.raises(TypeError):
            CustomPartition([[0.5]], support=(0.0, 1.0))
