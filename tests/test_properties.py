"""Property tests on random inputs.

Batch fits equal sequential observe() loops: the batch paths score count
tables in closed form over the refinement tree; the sequential paths run the
one-step KT recursion sample by sample.  Both must leave identical counts and
agree on log densities within the bounds of the fixed-example tests (1e-9
marginal, 1e-10 joint).  Also: every measure prices a half-open cell the same
through measure_of and masses_half_open, and the vectorized dataset reader
agrees with the cell-by-cell one, errors included.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ktmix.data import _parse_cells, parse_dataset
from ktmix.estimator import MixtureEstimator
from ktmix.joint import JointEstimator
from ktmix.kt import KtState, kt_log_prob_closed_form
from ktmix.measure import CountingMeasure, Interval, LebesgueMeasure, scaled, sum_measure
from ktmix.partition import CustomPartition, HistogramSequence


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
        measure = LebesgueMeasure(Interval.closed_open(0.0, 1.0))
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


def assert_same_levels(a, b, atol):
    np.testing.assert_allclose(a, b, rtol=0, atol=atol)


@given(
    m=st.integers(1, 40),
    symbols=st.lists(st.integers(0, 10**6), max_size=300),
    cuts=st.lists(st.integers(0, 300), max_size=6),
)
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


@given(
    x=columns(max_level=5, max_size=40),
    y=columns(max_level=5, max_size=40),
    cuts=st.lists(st.integers(0, 40), max_size=4),
)
def test_joint_batch_equals_sequential(x, y, cuts):
    (px, mx, xs), (py, my, ys) = x, y
    n = min(xs.size, ys.size)
    xs, ys = xs[:n], ys[:n]
    seq = JointEstimator(px, py, mx, my)
    for a, b in zip(xs.tolist(), ys.tolist()):
        seq.observe(a, b)
    mixed = JointEstimator(px, py, mx, my)
    for lo, hi, as_batch in segments(n, cuts):
        if as_batch:
            mixed.observe_many(xs[lo:hi], ys[lo:hi])
        else:
            for a, b in zip(xs[lo:hi].tolist(), ys[lo:hi].tolist()):
                mixed.observe(a, b)
    for j in range(px.max_level + 1):
        for k in range(py.max_level + 1):
            s, m = seq.grid_state(j, k), mixed.grid_state(j, k)
            assert (s is None) == (m is None)
            if s is not None:
                assert m.counts == s.counts
    assert_same_levels(mixed.grid_log_densities(), seq.grid_log_densities(), 1e-10)
    assert_same_levels(mixed.log_density(), seq.log_density(), 1e-10)


@given(column=columns(max_size=1), drop=st.integers(0, 10**6))
def test_histogram_cuts_refine_and_a_dropped_cut_breaks_it(column, drop):
    partition = column[0]
    levels = [partition.cut_points(k) for k in range(1, partition.max_level + 1)]
    assert CustomPartition(levels).verify_refinement()
    if partition.max_level >= 2:
        k = drop % (partition.max_level - 1)           # a level with a successor
        broken = [np.asarray(c) for c in levels]
        broken[k + 1] = np.setdiff1d(broken[k + 1], [broken[k][drop % broken[k].size]])
        assert not CustomPartition(broken).verify_refinement()


# Cell ends stay where float64 counts integers exactly, so the counting
# rules' float arithmetic and measure_of's integer arithmetic can agree.
ENDS = st.floats(-2.0**50, 2.0**50)


@st.composite
def base_measures(draw):
    kind = draw(st.sampled_from(["lebesgue", "atoms", "unit-integers", "unit-naturals",
                                 "harmonic"]))
    if kind == "lebesgue":
        lo, hi = sorted(draw(st.lists(ENDS, min_size=2, max_size=2, unique=True)))
        support = draw(st.sampled_from([
            Interval.real_line(), Interval.closed_open(lo, hi), Interval.half_open(lo, hi),
            Interval.closed(lo, hi), Interval(-math.inf, hi, False, True),
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
def test_measure_of_equals_masses_half_open(measure, ends, open_ends):
    lo, hi = sorted(ends)
    lo = -math.inf if open_ends == "lower" else lo
    hi = math.inf if open_ends == "upper" else hi
    scalar = measure.measure_of(Interval.half_open(lo, hi))
    vector = measure.masses_half_open(np.array([lo]), np.array([hi]))
    assert vector.shape == (1,)
    if math.isinf(scalar):
        assert vector[0] == scalar
    else:
        assert math.isclose(vector[0], scalar, rel_tol=1e-12,
                            abs_tol=1e-12 * total_atom_weight(measure))


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
