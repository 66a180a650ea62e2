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

INF = math.inf
NAN = math.nan


class TestInterval:
    def test_rejects_inverted_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_point_must_be_closed(self):
        with pytest.raises(ValueError):
            Interval(2.0, 2.0, True, False)
        assert Interval.point(2.0).is_point

    def test_infinite_endpoint_never_closed(self):
        with pytest.raises(ValueError):
            Interval(-INF, 0.0, True, True)
        with pytest.raises(ValueError):
            Interval(0.0, INF, False, True)

    def test_contains_respects_flags(self):
        iv = Interval.half_open(0.0, 1.0)
        assert not iv.contains(0.0)
        assert iv.contains(1.0)
        assert iv.contains(0.5)
        assert not iv.contains(1.5)

    def test_contains_many_matches_scalar(self):
        iv = Interval.closed_open(0.0, 1.0)
        xs = np.array([-0.1, 0.0, 0.5, 1.0, 1.1])
        assert list(iv.contains_many(xs)) == [iv.contains(x) for x in xs]

    def test_intersection(self):
        a = Interval.half_open(0.0, 2.0)
        b = Interval.closed_open(1.0, 3.0)
        c = a.intersect(b)
        assert (c.lower, c.upper, c.lower_closed, c.upper_closed) == (1.0, 2.0, True, True)

    def test_intersection_at_shared_endpoint(self):
        a = Interval.half_open(0.0, 1.0)
        assert a.intersect(Interval.closed_open(1.0, 2.0)) == Interval.point(1.0)
        assert a.intersect(Interval.half_open(1.0, 2.0)) is None

    def test_intersection_disjoint(self):
        assert Interval.half_open(0.0, 1.0).intersect(Interval.half_open(2.0, 3.0)) is None

    def test_config_round_trip(self):
        for iv in (Interval.real_line(), Interval.half_open(0.0, 1.0),
                   Interval.closed_open(0.0, INF), Interval.point(3.5)):
            assert interval_from_config(interval_to_config(iv)) == iv


class TestLebesgue:
    def test_unit_interval(self):
        assert LebesgueMeasure().measure_of(Interval.half_open(0.0, 1.0)) == 1.0

    def test_unbounded_cell_is_infinite(self):
        assert LebesgueMeasure().measure_of(Interval.half_open(0.0, INF)) == INF
        assert LebesgueMeasure().measure_of(Interval.real_line()) == INF

    def test_clips_to_support(self):
        m = LebesgueMeasure(Interval.closed_open(0.0, 1.0))
        assert m.measure_of(Interval.half_open(-INF, 0.5)) == 0.5
        assert m.measure_of(Interval.half_open(2.0, 3.0)) == 0.0

    def test_point_has_zero_mass(self):
        assert LebesgueMeasure().measure_of(Interval.point(0.3)) == 0.0


class TestCounting:
    def test_harmonic_tail_telescopes(self):
        # mass of {3, 4, ...} = sum 1/h - 1/(h+1) = 1/3
        m = CountingMeasure.harmonic_naturals()
        assert m.measure_of(Interval.half_open(2.5, INF)) == pytest.approx(1 / 3, abs=1e-15)

    def test_harmonic_matches_naive_summation(self):
        m = CountingMeasure.harmonic_naturals()
        cells = [Interval.half_open(0.5, 7.0), Interval.half_open(2.0, 2.0 + 1e-9),
                 Interval.closed_open(3.0, 10.0), Interval.half_open(4.5, INF)]
        for cell in cells:
            naive = sum(1.0 / (h * (h + 1)) for h in range(1, 10**6) if cell.contains(h))
            exact = m.measure_of(cell)
            if math.isinf(cell.upper):
                assert exact == pytest.approx(naive, abs=2e-6)  # naive truncates the tail
            else:
                assert exact == pytest.approx(naive, abs=1e-15)

    def test_harmonic_total_mass_is_one(self):
        m = CountingMeasure.harmonic_naturals()
        assert m.measure_of(Interval.real_line()) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("lo, hi", [(1e5 - 1, 1e5), (1e7 - 1, 1e7), (1e9 - 1, 1e9),
                                        (3.0, 1e7), (1e6, 2e6)])
    def test_harmonic_mass_of_large_naturals_does_not_cancel(self, lo, hi):
        # The mass of (lo, hi] is 1/(lo+1) - 1/(hi+1); as a float difference
        # it kept only ~6 digits at h = 1e9.
        exact = Fraction(1, int(lo) + 1) - Fraction(1, int(hi) + 1)
        m = CountingMeasure.harmonic_naturals()
        got = (m.measure_of(Interval.half_open(lo, hi)),
               float(m.masses_half_open([lo], [hi])[0]))
        for value in got:
            assert abs(Fraction(value) - exact) <= exact * Fraction(1, 10**15)

    def test_unit_integers(self):
        m = CountingMeasure.unit_integers()
        assert m.measure_of(Interval.half_open(0.0, 1.0)) == 1.0
        assert m.measure_of(Interval.half_open(-0.5, 2.0)) == 3.0  # {0, 1, 2}
        assert m.measure_of(Interval.half_open(0.0, 0.5)) == 0.0
        assert m.measure_of(Interval.real_line()) == INF

    def test_boundary_atom_belongs_to_left_closed_cell(self):
        m = CountingMeasure.unit_integers()
        assert m.measure_of(Interval.half_open(0.0, 1.0)) == 1.0  # atom 1
        assert m.measure_of(Interval.half_open(1.0, 2.0)) == 1.0  # atom 2, not 1

    def test_explicit_atoms_and_weights(self):
        m = CountingMeasure.from_atoms([2.0, 0.5], [3.0, 0.25])
        assert m.atoms == (0.5, 2.0)
        assert m.measure_of(Interval.half_open(0.0, 2.0)) == 3.25
        assert m.measure_of(Interval.half_open(0.5, 2.0)) == 3.0
        assert m.measure_of(Interval.point(0.5)) == 0.25

    def test_zero_atom_counting_is_null(self):
        m = CountingMeasure.from_atoms([])
        assert m.measure_of(Interval.real_line()) == 0.0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            CountingMeasure.from_atoms([1.0], [0.0])
        with pytest.raises(ValueError):
            CountingMeasure.from_atoms([1.0], [INF])
        with pytest.raises(ValueError):
            CountingMeasure.from_atoms([1.0, 1.0])

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
        assert m.measure_of(Interval.half_open(0.0, 1.0)) == 2.0  # length 1 + atom 1

    def test_sum_with_null_part_behaves_like_base(self):
        base = LebesgueMeasure()
        m = sum_measure(base, CountingMeasure.from_atoms([]))
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = sorted(rng.uniform(-5, 5, size=2))
            cell = Interval.half_open(a, b)
            assert m.measure_of(cell) == base.measure_of(cell)

    def test_sum_of_disjoint_atom_sets(self):
        m = sum_measure(CountingMeasure.from_atoms([1.0], [0.5]),
                        CountingMeasure.from_atoms([2.0], [0.75]))
        assert m.measure_of(Interval.half_open(0.0, 3.0)) == 1.25

    def test_sum_flattens(self):
        m = sum_measure(sum_measure(LebesgueMeasure(), CountingMeasure.from_atoms([1.0])),
                        CountingMeasure.from_atoms([2.0]))
        assert len(m.parts) == 3

    def test_scaled(self):
        m = scaled(LebesgueMeasure(), 2.5)
        assert m.measure_of(Interval.half_open(0.0, 2.0)) == 5.0
        assert scaled(m, 2.0).factor == 5.0  # collapses nesting
        with pytest.raises(ValueError):
            ScaledMeasure(LebesgueMeasure(), -1.0)


def _random_cell(rng):
    a, b = sorted(rng.uniform(-8, 8, size=2))
    return Interval.half_open(a, b)


ALL_MEASURES = [
    LebesgueMeasure(),
    LebesgueMeasure(Interval.closed_open(-1.0, 4.0)),
    CountingMeasure.unit_integers(),
    CountingMeasure.harmonic_naturals(),
    CountingMeasure.from_atoms([-2.0, 0.0, 0.5, 3.0], [1.0, 2.0, 0.5, 0.25]),
    sum_measure(LebesgueMeasure(), CountingMeasure.unit_integers()),
    scaled(sum_measure(LebesgueMeasure(Interval.closed_open(0.0, 2.0)),
                       CountingMeasure.from_atoms([1.0])), 3.0),
]


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_additivity_over_random_splits(measure):
    rng = np.random.default_rng(42)
    for _ in range(200):
        cell = _random_cell(rng)
        cuts = np.sort(rng.uniform(cell.lower, cell.upper, size=rng.integers(1, 4)))
        pieces = []
        lo = cell.lower
        for c in cuts:
            pieces.append(Interval.half_open(lo, c))
            lo = c
        pieces.append(Interval.half_open(lo, cell.upper))
        total = sum(measure.measure_of(p) for p in pieces)
        whole = measure.measure_of(cell)
        assert total == pytest.approx(whole, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_monotonicity(measure):
    rng = np.random.default_rng(7)
    for _ in range(200):
        inner = _random_cell(rng)
        pad_lo, pad_hi = rng.uniform(0, 3, size=2)
        outer = Interval.half_open(inner.lower - pad_lo, inner.upper + pad_hi)
        assert measure.measure_of(inner) <= measure.measure_of(outer)


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_sum_measure_postcondition(measure):
    other = CountingMeasure.from_atoms([0.5, 1.25], [2.0, 0.125])
    combined = sum_measure(measure, other)
    rng = np.random.default_rng(3)
    for _ in range(100):
        cell = _random_cell(rng)
        assert combined.measure_of(cell) == pytest.approx(
            measure.measure_of(cell) + other.measure_of(cell), rel=1e-12, abs=0
        )


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_config_round_trip(measure):
    clone = measure_from_config(measure.to_config())
    rng = np.random.default_rng(11)
    for _ in range(50):
        cell = _random_cell(rng)
        assert clone.measure_of(cell) == measure.measure_of(cell)


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: type(m).__name__)
def test_in_support_many_matches_scalar(measure):
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.uniform(-6, 6, 60), np.arange(-5.0, 6.0), [NAN, INF, -INF]])
    mask = measure.in_support_many(values)
    assert not mask[-3:].any()
    assert list(mask) == [measure.in_support(float(v)) for v in values]
