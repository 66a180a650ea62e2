import math
from fractions import Fraction

import numpy as np
import pytest

from ktmix.measure import (
    CountingMeasure,
    Interval,
    LebesgueMeasure,
    ScaledMeasure,
    interval_from_config,
    interval_to_config,
    measure_from_config,
    scaled,
    sum_measure,
)
from oracle import measure_of

INF = math.inf
NAN = math.nan


def priced(measure, lo, hi):
    """Mass of the cell (lo, hi] through masses_half_open."""
    return float(measure.masses_half_open([lo], [hi])[0])


class TestInterval:
    def test_rejects_inverted_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_point_must_be_closed(self):
        with pytest.raises(ValueError):
            Interval(2.0, 2.0, True, False)

    def test_infinite_endpoint_never_closed(self):
        with pytest.raises(ValueError):
            Interval(-INF, 0.0, True, True)
        with pytest.raises(ValueError):
            Interval(0.0, INF, False, True)

    def test_contains_respects_flags(self):
        iv = Interval(0.0, 1.0)
        assert not iv.contains(0.0)
        assert iv.contains(1.0)
        assert iv.contains(0.5)
        assert not iv.contains(1.5)

    def test_contains_many_matches_scalar(self):
        iv = Interval(0.0, 1.0, True, False)
        xs = np.array([-0.1, 0.0, 0.5, 1.0, 1.1])
        assert list(iv.contains_many(xs)) == [iv.contains(x) for x in xs]

    def test_config_round_trip(self):
        for iv in (Interval.real_line(), Interval(0.0, 1.0),
                   Interval(0.0, INF, True, False), Interval(3.5, 3.5, True, True)):
            assert interval_from_config(interval_to_config(iv)) == iv


class TestLebesgue:
    def test_unit_interval(self):
        assert priced(LebesgueMeasure(), 0.0, 1.0) == 1.0

    def test_unbounded_cell_is_infinite(self):
        assert priced(LebesgueMeasure(), 0.0, INF) == INF
        assert priced(LebesgueMeasure(), -INF, INF) == INF

    def test_clips_to_support(self):
        m = LebesgueMeasure(Interval(0.0, 1.0, True, False))
        assert priced(m, -INF, 0.5) == 0.5
        assert priced(m, 2.0, 3.0) == 0.0

    def test_point_has_zero_mass(self):
        assert measure_of(LebesgueMeasure(), 0.3, 0.3, True, True) == 0.0

    @pytest.mark.parametrize("lower_closed, upper_closed", [
        (False, False), (True, False), (False, True), (True, True)])
    def test_endpoint_flags_never_change_a_length(self, lower_closed, upper_closed):
        for m, length in ((LebesgueMeasure(), 1.75),
                          (LebesgueMeasure(Interval(0.0, 1.0, True, False)), 0.75)):
            assert measure_of(m, 0.25, 2.0, lower_closed, upper_closed) == length
            assert priced(m, 0.25, 2.0) == length

    @pytest.mark.parametrize("cell, mass", [
        ((-1.0, 0.0, False, True), 0.0),   # (-1, 0] meets [0, 1) in the point 0
        ((1.0, 2.0, True, True), 0.0),     # [1, 2] touches the open end
        ((0.0, 0.0, True, True), 0.0),     # the closed end as a point
        ((1.0, 1.0, True, True), 0.0),     # the open end as a point
        ((0.5, 0.5, True, True), 0.0),     # an interior point
        ((0.0, 1.0, False, False), 1.0),   # (0, 1) less both ends
        ((-INF, 0.5, False, True), 0.5),
        ((0.5, INF, True, False), 0.5),
        ((-INF, INF, False, False), 1.0),
        ((2.0, 3.0, True, True), 0.0),     # disjoint
    ])
    def test_cells_at_the_support_ends(self, cell, mass):
        m = LebesgueMeasure(Interval(0.0, 1.0, True, False))
        assert measure_of(m, *cell) == mass
        lo, hi, lo_closed, hi_closed = cell
        if not lo_closed and hi_closed != math.isinf(hi):   # the half-open cell (lo, hi]
            assert priced(m, lo, hi) == mass


class TestCounting:
    def test_harmonic_tail_telescopes(self):
        # mass of {3, 4, ...} = sum 1/h - 1/(h+1) = 1/3
        m = CountingMeasure.harmonic_naturals()
        assert priced(m, 2.5, INF) == pytest.approx(1 / 3, abs=1e-15)

    def test_harmonic_matches_naive_summation(self):
        m = CountingMeasure.harmonic_naturals()
        cells = [Interval(0.5, 7.0), Interval(2.0, 2.0 + 1e-9),
                 Interval(3.0, 10.0, True, False), Interval(4.5, INF, False, False)]
        for cell in cells:
            naive = sum(1.0 / (h * (h + 1)) for h in range(1, 10**6) if cell.contains(h))
            exact = [measure_of(m, cell.lower, cell.upper, cell.lower_closed, cell.upper_closed)]
            if not cell.lower_closed:                       # the half-open cells
                exact.append(priced(m, cell.lower, cell.upper))
            for value in exact:
                if math.isinf(cell.upper):
                    assert value == pytest.approx(naive, abs=2e-6)  # naive truncates the tail
                else:
                    assert value == pytest.approx(naive, abs=1e-15)

    def test_harmonic_total_mass_is_one(self):
        m = CountingMeasure.harmonic_naturals()
        assert priced(m, -INF, INF) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("lo, hi", [(1e5 - 1, 1e5), (1e7 - 1, 1e7), (1e9 - 1, 1e9),
                                        (3.0, 1e7), (1e6, 2e6)])
    def test_harmonic_mass_of_large_naturals_does_not_cancel(self, lo, hi):
        # The mass of (lo, hi] is 1/(lo+1) - 1/(hi+1); as a float difference
        # it kept only ~6 digits at h = 1e9.
        exact = Fraction(1, int(lo) + 1) - Fraction(1, int(hi) + 1)
        m = CountingMeasure.harmonic_naturals()
        got = (measure_of(m, lo, hi), priced(m, lo, hi))
        for value in got:
            assert abs(Fraction(value) - exact) <= exact * Fraction(1, 10**15)

    def test_unit_integers(self):
        m = CountingMeasure.unit_integers()
        assert priced(m, 0.0, 1.0) == 1.0
        assert priced(m, -0.5, 2.0) == 3.0  # {0, 1, 2}
        assert priced(m, 0.0, 0.5) == 0.0
        assert priced(m, -INF, INF) == INF

    def test_boundary_atom_belongs_to_left_closed_cell(self):
        m = CountingMeasure.unit_integers()
        assert priced(m, 0.0, 1.0) == 1.0  # atom 1
        assert priced(m, 1.0, 2.0) == 1.0  # atom 2, not 1

    def test_explicit_atoms_and_weights(self):
        m = CountingMeasure.from_atoms([2.0, 0.5], [3.0, 0.25])
        assert m.atoms == (0.5, 2.0)
        assert priced(m, 0.0, 2.0) == 3.25
        assert priced(m, 0.5, 2.0) == 3.0
        assert measure_of(m, 0.5, 0.5, True, True) == 0.25

    def test_zero_atom_counting_is_null(self):
        m = CountingMeasure.from_atoms([])
        assert priced(m, -INF, INF) == 0.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CountingMeasure.from_atoms([1.0], [0.0])
        with pytest.raises(ValueError):
            CountingMeasure.from_atoms([1.0], [INF])
        with pytest.raises(ValueError):
            CountingMeasure.from_atoms([1.0, 1.0])

    @pytest.mark.parametrize("weights", [[1.0], [1.0, 1.0, 5.0]], ids=["too-few", "too-many"])
    def test_misaligned_weights_are_rejected_not_dropped(self, weights):
        with pytest.raises(ValueError, match="^atoms and weights must align$"):
            CountingMeasure.from_atoms([0.0, 1.0], weights)

    def test_in_support(self):
        assert CountingMeasure.unit_integers().in_support(-4.0)
        assert not CountingMeasure.unit_integers().in_support(0.5)
        assert not CountingMeasure.unit_naturals().in_support(0.0)
        assert CountingMeasure.harmonic_naturals().in_support(17.0)
        m = CountingMeasure.from_atoms([0.25, 1.5])
        assert m.in_support(1.5) and not m.in_support(1.0)


class TestSumAndScaled:
    def test_lebesgue_plus_counting(self):
        m = sum_measure(LebesgueMeasure(), CountingMeasure.unit_integers())
        assert priced(m, 0.0, 1.0) == 2.0  # length 1 + atom 1

    def test_sum_with_null_part_behaves_like_base(self):
        base = LebesgueMeasure()
        m = sum_measure(base, CountingMeasure.from_atoms([]))
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = sorted(rng.uniform(-5, 5, size=2))
            assert priced(m, a, b) == priced(base, a, b)

    def test_sum_of_disjoint_atom_sets(self):
        m = sum_measure(CountingMeasure.from_atoms([1.0], [0.5]),
                        CountingMeasure.from_atoms([2.0], [0.75]))
        assert priced(m, 0.0, 3.0) == 1.25

    def test_sum_flattens(self):
        m = sum_measure(sum_measure(LebesgueMeasure(), CountingMeasure.from_atoms([1.0])),
                        CountingMeasure.from_atoms([2.0]))
        assert len(m.parts) == 3

    def test_scaled(self):
        m = scaled(LebesgueMeasure(), 2.5)
        assert priced(m, 0.0, 2.0) == 5.0
        assert scaled(m, 2.0).factor == 5.0  # collapses nesting
        with pytest.raises(ValueError):
            ScaledMeasure(LebesgueMeasure(), -1.0)


def _random_cell(rng):
    """(a, b) of a random half-open cell (a, b]."""
    return tuple(sorted(rng.uniform(-8, 8, size=2)))


ALL_MEASURES = [
    LebesgueMeasure(),
    LebesgueMeasure(Interval(-1.0, 4.0, True, False)),
    CountingMeasure.unit_integers(),
    CountingMeasure.harmonic_naturals(),
    CountingMeasure.from_atoms([-2.0, 0.0, 0.5, 3.0], [1.0, 2.0, 0.5, 0.25]),
    sum_measure(LebesgueMeasure(), CountingMeasure.unit_integers()),
    scaled(sum_measure(LebesgueMeasure(Interval(0.0, 2.0, True, False)),
                       CountingMeasure.from_atoms([1.0])), 3.0),
]


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_additivity_over_random_splits(measure):
    rng = np.random.default_rng(42)
    for _ in range(200):
        a, b = _random_cell(rng)
        cuts = np.sort(rng.uniform(a, b, size=rng.integers(1, 4)))
        total = sum(priced(measure, lo, hi) for lo, hi in zip([a, *cuts], [*cuts, b]))
        whole = priced(measure, a, b)
        assert total == pytest.approx(whole, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_monotonicity(measure):
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = _random_cell(rng)
        pad_lo, pad_hi = rng.uniform(0, 3, size=2)
        assert priced(measure, a, b) <= priced(measure, a - pad_lo, b + pad_hi)


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_sum_measure_postcondition(measure):
    other = CountingMeasure.from_atoms([0.5, 1.25], [2.0, 0.125])
    combined = sum_measure(measure, other)
    rng = np.random.default_rng(3)
    for _ in range(100):
        cell = _random_cell(rng)
        assert priced(combined, *cell) == pytest.approx(
            priced(measure, *cell) + priced(other, *cell), rel=1e-12, abs=0
        )


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_config_round_trip(measure):
    clone = measure_from_config(measure.to_config())
    rng = np.random.default_rng(11)
    for _ in range(50):
        cell = _random_cell(rng)
        assert priced(clone, *cell) == priced(measure, *cell)


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_in_support_many_matches_scalar(measure):
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.uniform(-6, 6, 60), np.arange(-5.0, 6.0), [NAN, INF, -INF]])
    mask = measure.in_support_many(values)
    assert not mask[-3:].any()
    assert list(mask) == [measure.in_support(float(v)) for v in values]


@pytest.mark.parametrize("measure", [*ALL_MEASURES, CountingMeasure.unit_naturals(),
                                     CountingMeasure.from_atoms([0.0])],
                         ids=lambda m: type(m).__name__)
def test_scalar_ends_price_as_one_cell_arrays(measure):
    for lo, hi in [(-1.0, 1.0), (-INF, 0.0), (0.0, INF), (-INF, INF), (2.0, 2.0), (0.25, 3.0)]:
        mass = measure.masses_half_open(lo, hi)
        assert np.shape(mass) == ()
        assert float(mass) == measure.masses_half_open([lo], [hi])[0]
