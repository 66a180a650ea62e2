"""Property tests on random inputs.

Batch fits equal sequential ones: the batch paths score count tables in
closed form over the refinement tree; the marginal's sequential path runs the
one-step KT recursion sample by sample, and the joint, which is fitted in
batches only, folds one-pair batches in one after another.  Both must leave
identical counts and agree on log densities within the bounds of the
fixed-example tests (1e-9 marginal, 1e-10 joint).  A joint whose y axis is one
cell of mass 1 is the marginal of x at half the weight, fitted at once or one
sample at a time.

Batch and sequential paths share level_alphabet, so a pricing or alphabet
bug would pass both; the g^n oracle in oracle.py checks them end to end.  It
prices every cell with its own scalar measure_of, straight from the measure's
definition, and scores each level from cut points and kt_log_prob_closed_form
alone.  The marginal batch, the marginal sequential and the joint batch paths
must match it within the same bounds; level_alphabet must match its prices
cell by cell, and masses_half_open its price of any half-open cell.

Also: the whole marginal and joint mixtures satisfy Kraft equality over
weighted atoms; column-kind inference from one sort follows the stated rules;
the finest-level count table read off a sorted batch equals the per-sample
binning; the batch and one-sample cell lookups, and the partition's
ancestors and cells_of, find at every level the cell a search of that
level's cut points finds; every joint grid state's count table is the
pairs binned one by one, and score_pair, which reads the cells a fitted
column binned once, gives the bits of observe_many on the values; the
cached mixture log density equals a fresh log-sum-exp after every
observation, rejected ones included; and the vectorized dataset reader
agrees with the cell-by-cell one, errors included.
"""

import itertools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ktmix.data import _kind_and_atoms, _parse_cells, parse_dataset
from ktmix.estimator import Axis, MixtureEstimator, _logsumexp, level_alphabet
from ktmix.joint import FittedColumn, JointEstimator, score_pair
from ktmix.kt import KtState, kt_log_prob_closed_form
from ktmix.measure import (CountingMeasure, Interval, LebesgueMeasure, OutOfSupportError, scaled,
                           sum_measure)
from ktmix.partition import CustomPartition, HistogramSequence
from oracle import (joint_level_log_densities, level_cells, level_log_densities, level_weights,
                    log_mixture, measure_of)


def segments(n, cuts):
    """Split range(n) at the sorted cut points; yields (lo, hi, as_batch)."""
    bounds = [0, *sorted({c % (n + 1) for c in cuts}), n]
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if hi > lo:
            yield lo, hi, i % 2 == 0


@st.composite
def columns(draw, max_level=10, max_size=60):
    """(partition, measure, samples) for a random HistogramSequence and measure."""
    kind = draw(st.sampled_from(["lebesgue", "bounded", "counting", "atom"]))
    if kind == "bounded":
        # Lebesgue on [0, 1): a sample at 0 sits in a zero-mass clipped cell
        # once a level cuts at 0, which kills that level.
        measure = LebesgueMeasure(Interval(0.0, 1.0, True, False))
        center, scale = 0.5, 0.5 ** draw(st.integers(1, 3))  # level 2, 3 or 5 cuts at 0
        values = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
                               min_size=1, max_size=max_size))
    elif kind == "counting":
        measure = CountingMeasure.unit_integers()
        center = float(draw(st.integers(-20, 20)))
        values = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=max_size))
        scale = draw(st.floats(0.01, 20))
    else:
        center = draw(st.floats(-50, 50))
        reals = st.floats(-100, 100)
        if kind == "lebesgue":
            measure = LebesgueMeasure()
        else:
            atom = draw(st.floats(-5, 5))
            measure = sum_measure(LebesgueMeasure(), CountingMeasure.from_atoms([atom]))
            reals = st.one_of(reals, st.just(atom))
        values = draw(st.lists(reals, min_size=1, max_size=max_size))
        scale = draw(st.floats(0.01, 20))
    levels = draw(st.integers(0, max_level))
    partition = HistogramSequence(center, scale, support=measure, max_level=levels)
    return partition, measure, np.asarray(values, dtype=float)


UNIT_INTERVAL = LebesgueMeasure(Interval(0.0, 1.0, True, False))


def unit_interval_axis(values, max_level=3):
    """An axis on Lebesgue measure over [0, 1) whose level 2 cuts at 0: a sample at 0 is massless.

    Its levels cut at multiples of 2^(1-k) inside [0, 1], so 0.25, 0.5 and
    0.75 lie on cuts from level 3 on; the examples below put samples there.
    """
    return (HistogramSequence(0.5, 0.5, support=UNIT_INTERVAL, max_level=max_level), UNIT_INTERVAL,
            np.array(values, dtype=float))


# Examples of a column: one with a sample at 0, so levels 2 and up hold a
# massless cell beside live ones, and one whose six levels all stay alive.
# Both put samples on cuts and several finest cells in each coarse cell.
DEAD_DEEP_COLUMN = unit_interval_axis([0.0, 0.25, 0.3, 0.3, 0.5, 0.7, 0.75, 0.99])
LIVE_COLUMN = unit_interval_axis([0.25, 0.3, 0.3, 0.5, 0.7, 0.75, 0.99], max_level=5)


def assert_same_levels(a, b, atol):
    np.testing.assert_allclose(a, b, rtol=0, atol=atol)


@given(
    m=st.integers(1, 40),
    symbols=st.lists(st.integers(0, 10**6), max_size=300),
    cuts=st.lists(st.integers(0, 300), max_size=6),
)
@example(m=3, symbols=[0, 1, 1, 2, 2, 2], cuts=[])
def test_kt_batch_equals_sequential(m, symbols, cuts):
    symbols = [s % m for s in symbols]
    seq, mixed = KtState(m), KtState(m)
    for s in symbols:
        seq.observe(s)
    for lo, hi, as_batch in segments(len(symbols), cuts):
        if as_batch:
            mixed.observe_many(symbols[lo:hi])
        else:
            for s in symbols[lo:hi]:
                mixed.observe(s)
    assert mixed.counts == seq.counts
    assert mixed.total == seq.total == len(symbols)
    assert math.isclose(mixed.log_prob, seq.log_prob, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(mixed.log_prob, kt_log_prob_closed_form(seq.counts, m), rel_tol=0, abs_tol=1e-9)


@given(column=columns(), cuts=st.lists(st.integers(0, 60), max_size=4))
@example(column=DEAD_DEEP_COLUMN, cuts=[])
@example(column=LIVE_COLUMN, cuts=[])
def test_mixture_batch_equals_sequential(column, cuts):
    partition, measure, ys = column
    seq = MixtureEstimator(partition, measure)
    seq_total = sum(seq.observe(y) for y in ys.tolist())
    mixed = MixtureEstimator(partition, measure)
    mixed_total = 0.0
    for lo, hi, as_batch in segments(ys.size, cuts):
        if as_batch:
            mixed_total += mixed.observe_many(ys[lo:hi])
        else:
            mixed_total += sum(mixed.observe(y) for y in ys[lo:hi].tolist())
    seq_state, mixed_state = seq.export_state(), mixed.export_state()
    assert [lv["counts"] for lv in mixed_state["levels"]] == [lv["counts"] for lv in seq_state["levels"]]
    assert mixed.n == seq.n == ys.size
    assert_same_levels(mixed.level_log_densities(), seq.level_log_densities(), 1e-9)
    assert_same_levels(mixed.log_density(), seq.log_density(), 1e-9)
    if math.isfinite(seq_total):
        assert math.isclose(mixed_total, seq_total, rel_tol=0, abs_tol=1e-9)


@given(column=columns(), cuts=st.lists(st.integers(0, 60), max_size=4))
@example(column=DEAD_DEEP_COLUMN, cuts=[4])
def test_cached_log_density_is_never_stale(column, cuts):
    partition, measure, ys = column
    est = MixtureEstimator(partition, measure)

    def assert_fresh():
        assert est.log_density() == _logsumexp((est._log_w + est.level_log_densities()).ravel())

    def rejected(observe, sample):
        with pytest.raises(OutOfSupportError):
            observe(sample)
        assert_fresh()

    assert_fresh()
    for lo, hi, as_batch in segments(ys.size, cuts):
        if as_batch:
            est.observe_many(ys[lo:hi])
            assert_fresh()
            rejected(est.observe_many, np.append(ys[lo:hi], math.nan))
        else:
            for y in ys[lo:hi].tolist():
                est.observe(y)
                assert_fresh()
                rejected(est.observe, math.nan)


@given(
    x=columns(max_level=5, max_size=40),
    y=columns(max_level=5, max_size=40),
    cuts=st.lists(st.integers(0, 40), max_size=4),
)
@example(x=unit_interval_axis([0.0, 0.3, 0.7, 0.2, 0.3]), y=unit_interval_axis([0.6, 0.0, 0.9, 0.1, 0.6]),
         cuts=[])
def test_joint_batch_equals_sequential(x, y, cuts):
    (px, mx, xs), (py, my, ys) = x, y
    n = min(xs.size, ys.size)
    xs, ys = xs[:n], ys[:n]
    seq = JointEstimator(Axis(px, mx), Axis(py, my))
    for a, b in zip(xs.tolist(), ys.tolist()):
        seq.observe_many([a], [b])
    mixed = JointEstimator(Axis(px, mx), Axis(py, my))
    for lo, hi, as_batch in segments(n, cuts):
        if as_batch:
            mixed.observe_many(xs[lo:hi], ys[lo:hi])
        else:
            for a, b in zip(xs[lo:hi].tolist(), ys[lo:hi].tolist()):
                mixed.observe_many([a], [b])
    for j in range(px.max_level + 1):
        for k in range(py.max_level + 1):
            s, m = seq.grid_state(j, k), mixed.grid_state(j, k)
            assert (s is None) == (m is None)
            if s is not None:
                assert m.counts == s.counts
    assert_same_levels(mixed.level_log_densities(), seq.level_log_densities(), 1e-10)
    assert_same_levels(mixed.log_density(), seq.log_density(), 1e-10)


@given(column=columns())
@example(column=DEAD_DEEP_COLUMN)
@example(column=LIVE_COLUMN)
def test_marginal_paths_equal_the_gn_oracle(column):
    partition, measure, ys = column
    want = level_log_densities(partition, measure, ys.tolist())
    want_total = log_mixture(level_weights(partition.max_level), want)
    batch, seq = MixtureEstimator(partition, measure), MixtureEstimator(partition, measure)
    batch.observe_many(ys)
    for y in ys.tolist():
        seq.observe(y)
    for est in (batch, seq):
        assert_same_levels(est.level_log_densities(), want, 1e-9)
        assert_same_levels(est.log_density(), want_total, 1e-9)


@given(x=columns(max_level=5, max_size=40), y=columns(max_level=5, max_size=40))
@example(x=unit_interval_axis([0.0, 0.25, 0.3, 0.7, 0.2, 0.3]),
         y=unit_interval_axis([0.6, 0.0, 0.9, 0.1, 0.6, 0.5], max_level=4))
@example(x=LIVE_COLUMN, y=unit_interval_axis([0.6, 0.75, 0.9, 0.1, 0.6, 0.5, 0.2]))
def test_joint_batch_equals_the_gn_oracle(x, y):
    (px, mx, xs), (py, my, ys) = x, y
    n = min(xs.size, ys.size)
    xs, ys = xs[:n], ys[:n]
    want = joint_level_log_densities(px, py, mx, my, xs.tolist(), ys.tolist())
    weights = np.outer(level_weights(px.max_level), level_weights(py.max_level))
    joint = JointEstimator(Axis(px, mx), Axis(py, my))
    joint.observe_many(xs, ys)
    assert_same_levels(joint.level_log_densities(), want, 1e-10)
    assert_same_levels(joint.log_density(), log_mixture(weights, want), 1e-10)


@given(column=columns())
@example(column=DEAD_DEEP_COLUMN)
def test_joint_with_a_one_cell_axis_is_the_marginal(column):
    # y = 0 on the one cell of a unit atom: the grid state (j, 0) codes the
    # level-j cells of x against mass 1, under the weight w_j * 1/2.  One
    # sample at a time, both sides fold one-sample count tables; the
    # marginal's one-step recursion would round differently (by ~1e-16).
    partition, measure, xs = column
    atom = CountingMeasure.from_atoms([0.0])
    py = HistogramSequence(0, 1, support=atom, max_level=0)
    for batch in (True, False):
        marginal = MixtureEstimator(partition, measure)
        joint = JointEstimator(Axis(partition, measure), Axis(py, atom))
        if batch:
            marginal.observe_many(xs)
            joint.observe_many(xs, np.zeros_like(xs))
        else:
            for x in xs.tolist():
                marginal.observe_many([x])
                joint.observe_many([x], [0.0])
        want, got = marginal.level_log_densities(), joint.level_log_densities()[:, 0]
        live = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), live)
        np.testing.assert_allclose(got[live], want[live], rtol=1e-12, atol=0)
        assert math.isclose(joint.log_density(), marginal.log_density() + math.log(0.5),
                            rel_tol=1e-12)


@given(column=columns(max_size=1), drop=st.integers(0, 10**6))
def test_histogram_cuts_refine_and_a_dropped_cut_breaks_it(column, drop):
    partition = column[0]
    levels = [partition.level_map(k).cuts for k in range(1, partition.max_level + 1)]
    assert CustomPartition(levels).verify_refinement()
    if partition.max_level >= 2:
        k = drop % (partition.max_level - 1)           # a level with a successor
        broken = [np.asarray(c) for c in levels]
        broken[k + 1] = np.setdiff1d(broken[k + 1], [broken[k][drop % broken[k].size]])
        assert not CustomPartition(broken).verify_refinement()


@st.composite
def binned_batches(draw):
    """(partition, samples) whose samples sit on and next to the finest cut points.

    The partition is a HistogramSequence of depth 0-16, one of depth 2-16 near
    cut collapse (the finest cells of its two inner bands 1-4 ulps of the
    center wide), or the dyadic splits of [0, 1) as a CustomPartition.  The
    samples are cut points and their float neighbours, both zeros, the band
    edges center + i*scale, points in both tails and arbitrary floats, each
    repeated up to three times.
    """
    kind = draw(st.sampled_from(["histogram", "near-collapse", "dyadic"]))
    if kind == "dyadic":
        depth = draw(st.integers(1, 8))
        partition = CustomPartition([np.arange(1, 2**k) / 2**k for k in range(1, depth + 1)])
        edges = [0.0, 1.0]
    else:
        if kind == "histogram":
            center, scale = draw(st.floats(-50, 50)), draw(st.floats(0.01, 20))
            depth = draw(st.integers(0, 16))
        else:
            center = draw(st.floats(1, 1e6)) * draw(st.sampled_from([-1.0, 1.0]))
            depth = draw(st.integers(2, 16))
            ulps = draw(st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 4.0]))
            scale = math.ulp(center) * 2.0 ** (depth - 2) * ulps
        partition = HistogramSequence(center, scale, max_level=depth)
        edges = [center + i * scale for i in range(-depth - 1, depth + 2)]
    cuts = partition.level_map(depth).cuts

    def near_cut(i, toward):
        cut = cuts[i % cuts.size]
        return float(cut if toward == 0 else np.nextafter(cut, toward))

    on_cut = st.builds(near_cut, st.integers(0, 2**16), st.sampled_from([0, -math.inf, math.inf]))
    value = st.one_of(on_cut if cuts.size else st.nothing(),
                      st.sampled_from([0.0, -0.0, *edges, -1e300, 1e300]),
                      st.floats(allow_nan=False, allow_infinity=False))
    picks = draw(st.lists(st.tuples(value, st.integers(1, 3)), min_size=1, max_size=40))
    values, repeats = zip(*picks)
    return partition, np.repeat(np.array(values), repeats)


@given(binned_batches())
@example((HistogramSequence(0.0, 1.0, max_level=3), np.array([0.0])))
def test_finest_count_table_equals_the_binned_samples(batch):
    partition, ys = batch
    cuts = partition.level_map(partition.max_level).cuts
    given_ys = ys.copy()
    table = partition.finest_counts(ys)
    want = np.bincount(np.searchsorted(cuts, ys, side="left"), minlength=cuts.size + 1)
    assert table.dtype == want.dtype
    np.testing.assert_array_equal(table, want)
    np.testing.assert_array_equal(ys, given_ys)           # not sorted in place
    np.testing.assert_array_equal(np.signbit(ys), np.signbit(given_ys))


def searched_cells(partition, ys):
    """Raw cell of each sample at every level by definition: a left-sided search of its cuts."""
    return [np.searchsorted(partition.level_map(k).cuts, ys, side="left")
            for k in range(partition.max_level + 1)]


def _on_and_off_cuts(partition):
    """Every finest cut, its float neighbours, both zeros and both far tails."""
    cuts = partition.level_map(partition.max_level).cuts
    near = np.concatenate((cuts, np.nextafter(cuts, -math.inf), np.nextafter(cuts, math.inf)))
    return partition, np.concatenate((near, [0.0, -0.0, -1e300, 1e300]))


@given(binned_batches(), st.booleans())
@example(_on_and_off_cuts(HistogramSequence(0.0, 1.0, max_level=3)), False)
@example(_on_and_off_cuts(HistogramSequence(0.5, 0.5, max_level=4)), True)
@example(_on_and_off_cuts(CustomPartition([np.arange(1, 2**k) / 2**k for k in range(1, 4)])), True)
def test_scalar_cell_lookup_is_the_batch_lookup(batch, bounded):
    """One-sample and batch lookups both find each level's searched cell, massless cells included."""
    partition, ys = batch
    axis = Axis(partition, LebesgueMeasure(Interval(0.0, 1.0, True, False)) if bounded
                else LebesgueMeasure())
    want = [r2a[raws] for r2a, raws in zip(axis.raw_to_alpha, searched_cells(partition, ys))]
    got = [r2a[raws] for r2a, raws in zip(axis.raw_to_alpha,
                                          partition.ancestors(partition.finest_cells(ys)))]
    assert len(got) == len(want)
    for batch_alphas, alphas in zip(got, want):
        np.testing.assert_array_equal(batch_alphas, alphas)
    for i, y in enumerate(ys.tolist()):
        cells = axis.cells(y)
        assert [a for a, _ in cells] == [int(alphas[i]) for alphas in want]
        assert all(a < 0 or log_eta[a] == axis.log_eta[k][a] for k, (a, log_eta) in enumerate(cells))


@given(binned_batches())
@example(_on_and_off_cuts(HistogramSequence(0.0, 1.0, max_level=0)))
@example(_on_and_off_cuts(HistogramSequence(0.0, 1.0, max_level=3)))
@example(_on_and_off_cuts(HistogramSequence(-3.7, 0.01, max_level=8)))
@example(_on_and_off_cuts(HistogramSequence(1e6, math.ulp(1e6) * 2.0**5, max_level=7)))
@example(_on_and_off_cuts(CustomPartition([np.arange(1, 2**k) / 2**k for k in range(1, 4)])))
def test_ancestors_and_cells_of_are_the_searched_cells(batch):
    """Partition.ancestors of the finest cells and cells_of each sample equal each level's search.

    The HistogramSequence shifts (raw finest cell i lies in raw cell
    i >> (L - k) of level k) and the searches of any other partition alike;
    the examples put samples on every finest cut, on its float neighbours, at
    both zeros and in both tails, so cells 0 and 2^L - 1 at every level.
    """
    partition, ys = batch
    want = searched_cells(partition, ys)
    got = partition.ancestors(want[-1])
    assert len(got) == len(want)
    for raws, searched in zip(got, want):
        np.testing.assert_array_equal(raws, searched)
    for i, y in enumerate(ys.tolist()):
        assert partition.cells_of(y) == [int(searched[i]) for searched in want]


def joint_axes():
    """(partition, measure, samples) of one joint axis.

    Either a columns() draw, whose bounded kind puts samples at 0 in a cell
    of zero mass, or a binned_batches() draw under Lebesgue measure: samples
    on and next to the finest cuts of a histogram sequence, one near cut
    collapse, or the dyadic CustomPartition of [0, 1).
    """
    return st.one_of(columns(max_level=6, max_size=40),
                     binned_batches().map(lambda batch: (batch[0], LebesgueMeasure(), batch[1])))


def searched_symbols(partition, measure, values):
    """Alphabet index of each sample at every level by definition, -1 where its cell is massless."""
    return [level_alphabet(partition, measure, k)[0][raws]
            for k, raws in enumerate(searched_cells(partition, values))]


@given(x=joint_axes(), y=joint_axes())
@example((HistogramSequence(0.0, 1.0, max_level=2), LebesgueMeasure(), np.repeat([-0.3, 0.3], 20)),
         (HistogramSequence(0.0, 1.0, max_level=5), LebesgueMeasure(), np.linspace(-3.9, 3.9, 40)))
@example(unit_interval_axis([0.0, 0.3, 0.7, 0.2]), unit_interval_axis([0.6, 0.0, 0.9, 0.1]))
def test_joint_count_tables_are_the_binned_pairs(x, y):
    """Every grid state's counts are the pairs of valid cells binned one by one, dead states too.

    The first example's 24 distinct pairs all lie in the one level-0 x cell:
    more ties than numpy sorts stably without being asked (above 16
    elements).  In the second, x and y each have one sample at 0, so from
    level 2 on each axis has a dead cell beside live ones.
    """
    (px, mx, xs), (py, my, ys) = x, y
    n = min(xs.size, ys.size)
    xs, ys = xs[:n], ys[:n]
    joint = JointEstimator(Axis(px, mx), Axis(py, my))
    joint.observe_many(xs, ys)
    sizes_y = [level_alphabet(py, my, k)[1].size for k in range(py.max_level + 1)]
    for j, a in enumerate(searched_symbols(px, mx, xs)):
        for k, b in enumerate(searched_symbols(py, my, ys)):
            state = joint.grid_state(j, k)
            valid = (a >= 0) & (b >= 0)
            if state is None:
                assert not valid.any()
                continue
            symbols, counts = np.unique(a[valid] * sizes_y[k] + b[valid], return_counts=True)
            assert state.counts == dict(zip(symbols.tolist(), counts.tolist()))


def fitted_axes():
    """joint_axes() draws on a HistogramSequence, the partition FittedColumn.fit takes."""
    return joint_axes().filter(lambda axis: isinstance(axis[0], HistogramSequence))


@given(x=fitted_axes(), y=fitted_axes(), shallower=st.integers(0, 2))
@example((HistogramSequence(0.0, 1.0, max_level=3), LebesgueMeasure(), np.array([0.0, 0.5, -0.5, 1.0])),
         (HistogramSequence(0.0, 1.0, max_level=3), LebesgueMeasure(), np.array([-0.5, 1.0, 0.5, 0.5])),
         0)
def test_score_pair_equals_the_joint_fit_of_the_values(x, y, shallower):
    """score_pair, which reads the cells FittedColumn.fit binned, gives observe_many's log g_xy bits.

    The example's samples all sit on level-3 cuts inside the bounded cells.
    """
    (px, mx, xs), (py, my, ys) = x, y
    n = min(xs.size, ys.size)
    xs, ys = xs[:n], ys[:n]
    levels = max(0, min(px.max_level, py.max_level) - shallower)
    fx, fy = FittedColumn.fit(xs, px, mx, levels), FittedColumn.fit(ys, py, my, levels)
    joint = JointEstimator(Axis(fx.axis.partition, mx), Axis(fy.axis.partition, my))
    joint.observe_many(xs, ys)
    if -math.inf in (fx.log_density, fy.log_density, joint.log_density()):
        with pytest.raises(ValueError, match="collapsed"):
            score_pair(fx, fy)
    else:
        assert score_pair(fx, fy).log_gxy == joint.log_density()


# Cell ends stay where float64 counts integers exactly, so the counting
# rules' float arithmetic and the oracle's integer arithmetic can agree.
ENDS = st.floats(-2.0**50, 2.0**50)


@st.composite
def base_measures(draw):
    kind = draw(st.sampled_from(["lebesgue", "atoms", "unit-integers", "unit-naturals",
                                 "harmonic"]))
    if kind == "lebesgue":
        lo, hi = sorted(draw(st.lists(ENDS, min_size=2, max_size=2, unique=True)))
        support = draw(st.sampled_from([
            Interval.real_line(), Interval(lo, hi, True, False), Interval(lo, hi),
            Interval(lo, hi, True, True), Interval(-math.inf, hi, False, True),
        ]))
        return LebesgueMeasure(support)
    if kind == "atoms":
        atoms = draw(st.lists(st.floats(-100, 100), min_size=1, max_size=8, unique=True))
        weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(atoms), max_size=len(atoms)))
        return CountingMeasure.from_atoms(atoms, weights)
    return {"unit-integers": CountingMeasure.unit_integers(),
            "unit-naturals": CountingMeasure.unit_naturals(),
            "harmonic": CountingMeasure.harmonic_naturals()}[kind]


@st.composite
def measures(draw):
    measure = draw(base_measures())
    if draw(st.booleans()):
        measure = sum_measure(measure, draw(base_measures()))
    if draw(st.booleans()):
        measure = scaled(measure, draw(st.floats(1e-3, 1e3)))
    return measure


def total_atom_weight(measure) -> float:
    """Largest finite mass a cancellation error in the cumulative weights can scale with."""
    factor = getattr(measure, "factor", 1.0)
    base = getattr(measure, "base", measure)
    parts = getattr(base, "parts", (base,))
    return factor * sum(sum(getattr(p, "weights", ())) for p in parts)


@given(measure=measures(),
       ends=st.lists(st.one_of(ENDS, st.floats(-20, 20), st.integers(-20, 20).map(float)),
                     min_size=2, max_size=2, unique=True),
       open_ends=st.sampled_from(["none", "lower", "upper"]))
@example(measure=UNIT_INTERVAL, ends=[2.0, 3.0], open_ends="none")             # beyond the support
@example(measure=CountingMeasure.from_atoms([0.5, 3.0], [2.0, 1.0]), ends=[1.0, 2.0],
         open_ends="none")                                                     # between the atoms
def test_measure_of_equals_masses_half_open(measure, ends, open_ends):
    lo, hi = sorted(ends)
    lo = -math.inf if open_ends == "lower" else lo
    hi = math.inf if open_ends == "upper" else hi
    scalar = measure_of(measure, lo, hi)
    vector = measure.masses_half_open(np.array([lo]), np.array([hi]))
    assert vector.shape == (1,)
    if math.isinf(scalar):
        assert vector[0] == scalar
    else:
        assert math.isclose(vector[0], scalar, rel_tol=1e-12,
                            abs_tol=1e-12 * total_atom_weight(measure))


@given(measure=measures(), histogram=st.booleans(), center=st.floats(-20, 20),
       scale=st.floats(0.01, 20), depth=st.integers(0, 8))
@example(measure=UNIT_INTERVAL, histogram=True, center=0.5, scale=0.5, depth=3)
@example(measure=CountingMeasure.from_atoms([0.3, 0.6]), histogram=False, center=0.0, scale=1.0, depth=3)
def test_level_alphabet_keeps_the_cells_of_positive_oracle_mass(measure, histogram, center,
                                                                scale, depth):
    if histogram:
        partition = HistogramSequence(center, scale, max_level=depth)
    else:
        partition = CustomPartition([np.arange(1, 2**k) / 2**k for k in range(1, depth + 1)])
    for k in range(depth + 1):
        raw_to_alpha, log_eta = level_alphabet(partition, measure, k)
        masses = np.array(level_cells(partition, measure, k)[1])
        kept = masses > 0
        np.testing.assert_array_equal(raw_to_alpha[~kept], -1)
        np.testing.assert_array_equal(raw_to_alpha[kept], np.arange(kept.sum()))
        np.testing.assert_allclose(np.exp(log_eta), masses[kept], rtol=1e-12,
                                   atol=1e-12 * total_atom_weight(measure))


@st.composite
def atom_columns(draw):
    """(partition, measure) for 2-3 weighted atoms and a histogram sequence of depth <= 2."""
    atoms = draw(st.lists(st.floats(-10, 10), min_size=2, max_size=3, unique=True))
    weights = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(atoms), max_size=len(atoms)))
    measure = CountingMeasure.from_atoms(atoms, weights)
    partition = HistogramSequence(draw(st.floats(-10, 10)), draw(st.floats(0.01, 10)),
                                  support=measure, max_level=draw(st.integers(0, 2)))
    return partition, measure


def weighted_sequences(measures, n):
    """(one value list per measure, product of the atom weights) of every
    length-n sequence of atom tuples."""
    letters = list(itertools.product(*(zip(m.atoms, m.weights) for m in measures)))
    for seq in itertools.product(letters, repeat=n):
        columns = [[letter[axis][0] for letter in seq] for axis in range(len(measures))]
        yield columns, math.prod(w for letter in seq for _, w in letter)


# A light atom between heavy ones: its cell's mass must not cancel away.
LIGHT = CountingMeasure.from_atoms([0.0, 1.0, 2.0], [1000.0, 0.001, 1.0])
LIGHT_COLUMN = (HistogramSequence(1.0, 0.7, support=LIGHT, max_level=2), LIGHT)


@settings(max_examples=25)
@given(x=atom_columns(), y=atom_columns(), n=st.integers(1, 2))
@example(x=LIGHT_COLUMN, y=LIGHT_COLUMN, n=2)
def test_mixtures_satisfy_kraft_equality(x, y, n):
    """Summed over every atom sequence, g times the atom weights is the prior
    weight of the live levels (marginal) or grid states (joint): each cell's KT
    probability spreads over its atoms in proportion to weight / eta."""
    (px, mx), (py, my) = x, y
    for fresh, measures in ((lambda: MixtureEstimator(px, mx), [mx]),
                            (lambda: JointEstimator(Axis(px, mx), Axis(py, my)), [mx, my])):
        total = 0.0
        for columns, weight in weighted_sequences(measures, n):
            est = fresh()
            est.observe_many(*columns)
            total += math.exp(est.log_density()) * weight
        assert math.isclose(total, math.exp(fresh().log_density()), rel_tol=1e-12)


def kind_by_the_rules(values):
    """The column-kind rules as stated, one pass over the whole column each."""
    distinct = np.unique(values).size
    if np.all(values == np.floor(values)) and distinct <= max(20.0, math.sqrt(values.size)):
        return "discrete"
    uniq, counts = np.unique(values, return_counts=True)
    atoms = uniq[counts > 0.05 * values.size]
    rest = values[~np.isin(values, atoms)]
    return "mixed" if atoms.size and np.all(rest != np.floor(rest)) else "continuous"


@given(st.lists(st.one_of(st.integers(-3, 3).map(float), st.sampled_from([0.5, -2.25]),
                          st.integers(-10**6, 10**6).map(float), st.floats(-1e6, 1e6)),
                min_size=1, max_size=80))
def test_one_sort_kind_inference_follows_the_rules(values):
    values = np.asarray(values)
    kind, atoms = _kind_and_atoms(values)
    assert kind == kind_by_the_rules(values)
    uniq, counts = np.unique(values, return_counts=True)
    np.testing.assert_array_equal(atoms, uniq[counts > 0.05 * values.size])


CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["", " ", " 2 ", "\t3", "\xa04", "1_0", "0x1p3", "1d5", "+.5", ".5e",
                     "\u0661", "1\x00", "nan", "-inf", "1e400", "1e-400", "-0", "1 2", '"1"']),
    st.text(alphabet="0123456789.-+eE _\t\r\n\x0b\x0c\x1c\x85\u2028 ,#", max_size=5),
)


@given(width=st.integers(1, 3),
       rows=st.lists(st.lists(CELLS, min_size=1, max_size=4), max_size=5),
       line_end=st.sampled_from(["\n", "\n", "\r\n", "\r"]),
       tail=st.sampled_from(["", "\n", "\n\n"]))
def test_vectorized_reader_equals_cell_reader(width, rows, line_end, tail):
    text = ",".join("abc"[:width]) + line_end + line_end.join(map(",".join, rows)) + tail
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

        def outcome(parse):
            try:
                names, columns = parse(path)
            except ValueError as exc:
                return type(exc), str(exc)
            return names, [(c.tolist(), np.signbit(c).tolist(), c.dtype) for c in columns]

        assert outcome(parse_dataset) == outcome(_parse_cells)
