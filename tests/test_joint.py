import gc
import itertools
import math
import weakref

import numpy as np
import pytest

from ktmix.data import default_scale
from ktmix.estimator import LevelWeights, MixtureEstimator
from ktmix.joint import (DEFAULT_JOINT_LEVEL, FittedColumn, JointEstimator, PairReport,
                         analyze_pair, build_forest, score_pair)
from ktmix.measure import (
    CountingMeasure,
    Interval,
    LebesgueMeasure,
    OutOfSupportError,
    scaled,
    sum_measure,
)
from ktmix.partition import DEFAULT_MAX_LEVEL, CustomPartition, HistogramSequence

UNIT = Interval(0.0, 1.0, True, False)


def unit_partitions(max_level):
    px = HistogramSequence(0.5, 0.25, support=UNIT, max_level=max_level)
    py = HistogramSequence(0.5, 0.25, support=UNIT, max_level=max_level)
    return px, py


def unit_joint(max_level):
    px, py = unit_partitions(max_level)
    return JointEstimator(px, py, LebesgueMeasure(UNIT), LebesgueMeasure(UNIT))


class TestConstruction:
    def test_default_product_weights_sum_below_one(self):
        wx = sum(LevelWeights.default(8).values)
        joint = unit_joint(8)
        assert math.exp(joint.log_density()) == pytest.approx(wx * wx, abs=1e-12)

    def test_single_cell_grid(self):
        joint = unit_joint(0)
        assert joint.observe_many([0.3], [0.8]) == pytest.approx(0.0, abs=1e-15)
        assert joint.log_density() == pytest.approx(math.log(0.25), abs=1e-15)  # w_0 w_0 = 1/4

    def test_non_refining_partition_rejected(self):
        good = HistogramSequence(0.0, 1.0, max_level=2)
        broken = CustomPartition([[0.5], [0.25, 0.75]])
        for px, py in ((broken, good), (good, broken)):
            with pytest.raises(ValueError, match="refinement"):
                JointEstimator(px, py, LebesgueMeasure(), LebesgueMeasure())


class TestObserve:
    def test_first_pair_has_density_one_on_uniform_setup(self):
        joint = unit_joint(2)
        assert joint.observe_many([0.3], [0.6]) == pytest.approx(0.0, abs=1e-14)

    def test_unbounded_levels_contribute_zero(self):
        joint = JointEstimator(
            HistogramSequence(0.0, 1.0, max_level=2),
            HistogramSequence(0.0, 1.0, max_level=2),
            LebesgueMeasure(), LebesgueMeasure(),
        )
        joint.observe_many([0.3], [0.4])
        gld = joint.level_log_densities()
        assert gld[0, 0] == -math.inf
        assert gld[0, 2] == -math.inf   # any grid point touching level 0 is dead
        assert math.isfinite(gld[2, 2])

    def test_out_of_support(self):
        joint = unit_joint(2)
        with pytest.raises(OutOfSupportError):
            joint.observe_many([0.5], [1.5])
        with pytest.raises(OutOfSupportError):
            joint.observe_many([0.1, 2.0], [0.1, 0.2])
        with pytest.raises(OutOfSupportError) as info:
            joint.observe_many(np.array([0.1, 0.2, 0.3]), np.array([0.1, 0.2, 1.25]))
        assert info.value.index == 2
        assert str(info.value) == "pair (0.3, 1.25) lies outside the support"
        assert joint.n == 0

    def test_non_finite_pairs_rejected(self):
        px, _ = unit_partitions(2)
        joint = JointEstimator(px, HistogramSequence(0.0, 1.0, max_level=2),
                               LebesgueMeasure(UNIT), LebesgueMeasure())
        for x, y in ((math.nan, 0.5), (0.5, math.nan), (0.5, math.inf)):
            with pytest.raises(OutOfSupportError):
                joint.observe_many([x], [y])
            with pytest.raises(OutOfSupportError) as info:
                joint.observe_many([0.5, x], [0.5, y])
            assert info.value.index == 1
        assert joint.n == 0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(42)
        xs = rng.random(250)
        ys = np.clip(xs + rng.normal(0, 0.05, 250), 0.0, 0.999)
        a, b = unit_joint(4), unit_joint(4)
        a.observe_many(xs, ys)
        order = rng.permutation(250)
        b.observe_many(xs[order], ys[order])
        assert a.log_density() == pytest.approx(b.log_density(), abs=1e-9)

    def test_batch_with_every_pair_in_a_zero_mass_x_cell(self):
        # Lebesgue measure on [0, 1) gives the cell (-inf, 0] of x levels 3
        # and up no mass, so at those levels every pair is invalid and the
        # merged key array of the batch is empty; y is a counting axis.
        px = HistogramSequence(0.5, 0.25, max_level=5)
        py = HistogramSequence(2.0, 1.0, max_level=3)
        mx, my = LebesgueMeasure(UNIT), CountingMeasure.harmonic_naturals()
        xs = np.zeros(40)
        ys = np.random.default_rng(4).integers(1, 6, 40).astype(float)
        seq, batch = JointEstimator(px, py, mx, my), JointEstimator(px, py, mx, my)
        total = sum(seq.observe_many([x], [y]) for x, y in zip(xs.tolist(), ys.tolist()))
        inc = batch.observe_many(xs, ys)
        for j in range(6):
            for k in range(4):
                s, b = seq.grid_state(j, k), batch.grid_state(j, k)
                assert (s is None) == (b is None)
                if s is not None:
                    assert b.counts == s.counts and b.total == s.total
                    assert b.log_prob == pytest.approx(s.log_prob, abs=1e-10)
        gs, gb = seq.level_log_densities(), batch.level_log_densities()
        assert np.isneginf(gb[3:]).all()
        assert np.array_equal(np.isneginf(gb), np.isneginf(gs))
        assert np.allclose(gb[np.isfinite(gs)], gs[np.isfinite(gs)], rtol=0, atol=1e-10)
        assert np.isfinite(gs).any()
        assert inc == pytest.approx(total, abs=1e-10)

    def test_batch_on_a_zero_mass_axis_gives_density_zero(self):
        # Lebesgue measure on the single point 0.5 admits 0.5 but gives every
        # cell mass zero: on x it leaves no grid row a state, on y no column.
        point = LebesgueMeasure(Interval(0.5, 0.5, True, True))
        px, py = HistogramSequence(0.0, 1.0, max_level=3), HistogramSequence(0.0, 1.0, max_level=2)
        for mx, my in ((point, point), (LebesgueMeasure(), point), (point, LebesgueMeasure())):
            joint = JointEstimator(px, py, mx, my)
            assert joint.observe_many([0.5, 0.5], [0.5, 0.5]) == -math.inf
            assert np.isneginf(joint.level_log_densities()).all()
            assert joint.n == 2

    def test_empty_batch_adds_nothing(self):
        joint = unit_joint(3)
        before = joint.log_density()
        assert joint.observe_many([], []) == 0.0
        assert joint.n == 0
        assert joint.log_density() == before

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(6)
        xs, ys = rng.random(120), rng.random(120)
        seq, batch = unit_joint(3), unit_joint(3)
        total = sum(seq.observe_many([x], [y]) for x, y in zip(xs.tolist(), ys.tolist()))
        inc = batch.observe_many(xs, ys)
        assert batch.log_density() == pytest.approx(seq.log_density(), abs=1e-10)
        assert inc == pytest.approx(total, abs=1e-10)

    def test_joint_rate_converges_to_product_entropy(self):
        # independent uniforms on [0,1)^2 have joint differential entropy 0
        rng = np.random.default_rng(64)
        n = 2**13
        joint = unit_joint(8)
        joint.observe_many(rng.random(n), rng.random(n))
        rate = -joint.log_density() / n
        assert abs(rate) <= 0.15


class TestGridKraft:
    def test_exhaustive_product_alphabet_sums_to_one(self):
        # 2x2 product alphabet at grid point (1, 1); representatives per cell
        reps = [0.25, 0.75]
        for n in range(1, 5):
            total = 0.0
            for labels in itertools.product(range(4), repeat=n):
                joint = unit_joint(1)
                for lab in labels:
                    joint.observe_many([reps[lab // 2]], [reps[lab % 2]])
                total += math.exp(joint.grid_state(1, 1).log_prob)
            assert total == pytest.approx(1.0, abs=1e-12)


class TestAnalyzePair:
    def test_single_sample_brute_force_oracle(self):
        # Fixed geometry so every first observation has density exactly 1:
        # g_x = g_y = w0 + w1, g_xy = (w0 + w1)^2, so the factor is exactly 0.
        report = analyze_pair(
            [0.3], [0.6],
            measure_x=LebesgueMeasure(UNIT), measure_y=LebesgueMeasure(UNIT),
            center_x=0.5, scale_x=0.25, center_y=0.5, scale_y=0.25,
            levels=1, joint_levels=1, prior_p=0.5,
        )
        w01 = 1 / 2 + 1 / 6
        assert report.log_gx == pytest.approx(math.log(w01), abs=1e-12)
        assert report.log_gxy == pytest.approx(2 * math.log(w01), abs=1e-12)
        assert report.log_bayes_factor == pytest.approx(0.0, abs=1e-12)
        assert report.mi_per_sample == pytest.approx(0.0, abs=1e-12)
        assert report.decision == "independent"  # ties go to independence

    def test_duplicated_continuous_column_is_dependent(self):
        rng = np.random.default_rng(500)
        xs = rng.standard_normal(500)
        report = analyze_pair(xs, xs, joint_levels=6)
        assert report.decision == "dependent"
        assert report.log_bayes_factor < 0
        assert report.mi_per_sample > 0

    def test_independent_bernoulli_columns(self):
        measure = CountingMeasure.unit_integers()
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            xs = rng.integers(0, 2, 1000).astype(float)
            ys = rng.integers(0, 2, 1000).astype(float)
            report = analyze_pair(xs, ys, measure_x=measure, measure_y=measure,
                                  joint_levels=6)
            wins += report.decision == "independent"
        assert wins >= 9

    def test_report_invariant(self):
        rng = np.random.default_rng(11)
        xs, ys = rng.random(80), rng.random(80)
        report = analyze_pair(xs, ys, prior_p=0.3, joint_levels=4, levels=6)
        reconstructed = (math.log(0.3) + report.log_gx + report.log_gy
                         - math.log(0.7) - report.log_gxy)
        assert report.log_bayes_factor == pytest.approx(reconstructed, abs=1e-12)
        assert report.decision == ("independent" if report.log_bayes_factor >= 0 else "dependent")
        assert set(report.to_dict()) == {
            "log_gx", "log_gy", "log_gxy", "log_bayes_factor",
            "mi_per_sample", "decision", "prior_p",
        }

    def test_symmetry(self):
        rng = np.random.default_rng(21)
        xs = rng.standard_normal(300)
        ys = 0.5 * xs + rng.standard_normal(300)
        a = analyze_pair(xs, ys, joint_levels=5)
        b = analyze_pair(ys, xs, joint_levels=5)
        assert a.log_bayes_factor == pytest.approx(b.log_bayes_factor, abs=1e-9)
        assert a.log_gxy == pytest.approx(b.log_gxy, abs=1e-9)

    def test_reference_scale_invariance(self):
        rng = np.random.default_rng(33)
        xs = rng.standard_normal(250)
        ys = xs + rng.standard_normal(250)
        base = analyze_pair(xs, ys, joint_levels=5)
        for c in (0.1, 10.0):
            report = analyze_pair(xs, ys, measure_x=scaled(LebesgueMeasure(), c),
                                  joint_levels=5)
            assert report.log_gx == pytest.approx(base.log_gx - 250 * math.log(c), abs=1e-9)
            assert report.log_bayes_factor == pytest.approx(base.log_bayes_factor, abs=1e-9)

    def test_scaled_counting_measure_invariance(self):
        rng = np.random.default_rng(34)
        xs = rng.integers(0, 3, 400).astype(float)
        ys = rng.integers(0, 2, 400).astype(float)
        counting = CountingMeasure.unit_integers()
        base = analyze_pair(xs, ys, measure_x=counting, measure_y=counting, joint_levels=5)
        report = analyze_pair(xs, ys, measure_x=scaled(counting, 4.0),
                              measure_y=counting, joint_levels=5)
        assert report.log_bayes_factor == pytest.approx(base.log_bayes_factor, abs=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            analyze_pair([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            analyze_pair([], [])
        with pytest.raises(ValueError):
            analyze_pair([1.0], [2.0], prior_p=1.0)


def fit_column(values, measure=None, levels=DEFAULT_MAX_LEVEL, joint_levels=DEFAULT_JOINT_LEVEL):
    """FittedColumn.fit on the histogram sequence at the sample mean and default_scale."""
    values = np.asarray(values, dtype=float)
    partition = HistogramSequence(values.mean(), default_scale(values), max_level=levels)
    return FittedColumn.fit(values, partition, measure or LebesgueMeasure(), joint_levels)


class TestFittedColumn:
    def test_keeps_the_marginal_density_and_a_joint_depth_partition(self):
        rng = np.random.default_rng(7)
        xs = rng.standard_normal(300)
        fitted = fit_column(xs, levels=12, joint_levels=5)
        est = MixtureEstimator(HistogramSequence(xs.mean(), xs.std(), max_level=12), LebesgueMeasure())
        est.observe_many(xs)
        assert fitted.log_density == est.log_density()
        assert fitted.partition.max_level == 5
        np.testing.assert_array_equal(fitted.values, xs)

    def test_scoring_fitted_columns_equals_analyze_pair(self):
        rng = np.random.default_rng(8)
        xs = rng.standard_normal(400)
        ys = np.where(rng.random(400) < 0.5, 0.0, xs + rng.standard_normal(400))
        zero_inflated = sum_measure(LebesgueMeasure(), CountingMeasure.from_atoms([0.0]))
        fx = fit_column(xs, levels=10, joint_levels=6)
        fy = fit_column(ys, measure=zero_inflated, levels=10, joint_levels=6)
        direct = analyze_pair(xs, ys, measure_y=zero_inflated, levels=10, joint_levels=6,
                              prior_p=0.3)
        # the same fitted columns serve several pairs and priors
        assert score_pair(fx, fy, 0.5).log_gxy == score_pair(fx, fy, 0.3).log_gxy
        assert score_pair(fx, fy, 0.3) == direct

    def test_pair_validation(self):
        fx = fit_column([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="equal-length"):
            score_pair(fx, fit_column([0.1, 0.2]))
        with pytest.raises(ValueError, match="prior_p"):
            score_pair(fx, fx, 0.0)

    def test_empty_columns_are_not_paired(self):
        empty = FittedColumn.fit(np.array([]), HistogramSequence(0, 1, max_level=4), LebesgueMeasure(),
                                 joint_levels=3)
        with pytest.raises(ValueError, match="at least one sample pair is required"):
            score_pair(empty, empty)

    def test_joint_levels_need_a_histogram_sequence(self):
        custom = CustomPartition([[0.5], [0.25, 0.5, 0.75]])
        with pytest.raises(ValueError, match="HistogramSequence"):
            FittedColumn.fit([0.2, 0.6], custom, LebesgueMeasure(UNIT), joint_levels=2)
        assert FittedColumn.fit([0.2, 0.6], custom, LebesgueMeasure(UNIT)).partition is None

    def test_collapsed_marginal_is_named(self):
        dead = fit_column([0.5, 1.5], levels=1)   # level cells of infinite mass only
        live = fit_column([0.5, 1.5])
        with pytest.raises(ValueError, match="the y estimator collapsed"):
            score_pair(live, dead)

    @pytest.mark.parametrize("joint_levels", [None, 4])
    def test_keeps_no_reference_to_the_marginal_partition(self, joint_levels):
        xs = np.random.default_rng(9).standard_normal(200)
        partition = HistogramSequence(xs.mean(), xs.std(), max_level=12)
        fitted = FittedColumn.fit(xs, partition, LebesgueMeasure(), joint_levels)
        gone = weakref.ref(partition)
        del partition
        gc.collect()
        assert gone() is None
        assert (fitted.partition is None) == (joint_levels is None)

    @pytest.mark.parametrize("values, levels", [
        (np.random.default_rng(10).standard_normal(500), 10),
        ([0.5, 1.5], 1),   # the dead column above: +inf bits
    ])
    def test_codelength_equals_the_estimators(self, values, levels):
        values = np.asarray(values, dtype=float)
        partition = HistogramSequence(values.mean(), default_scale(values), max_level=levels)
        est = MixtureEstimator(partition, LebesgueMeasure())
        est.observe_many(values)
        bits = fit_column(values, levels=levels, joint_levels=None).codelength_bits()
        assert bits == est.codelength_bits()
        assert (bits == math.inf) == (levels == 1)

    def test_a_column_fitted_without_joint_levels_is_not_paired(self):
        fx = fit_column([0.1, 0.2, 0.3], joint_levels=None)
        with pytest.raises(ValueError, match="without joint_levels"):
            score_pair(fx, fit_column([0.3, 0.2, 0.1]))


def _fake_report(log_bf):
    decision = "independent" if log_bf >= 0 else "dependent"
    return PairReport(0.0, 0.0, 0.0, log_bf, 0.0, decision, 0.5)


class TestForest:
    def test_single_dependent_pair(self):
        table = {
            ("X", "Y"): _fake_report(-5.0),
            ("X", "Z"): _fake_report(1.0),
            ("Y", "Z"): _fake_report(0.5),
        }
        edges = build_forest(table)
        assert [(e.u, e.v) for e in edges] == [("X", "Y")]
        assert edges[0].weight == 5.0

    def test_cycle_is_broken_by_weight(self):
        table = {
            ("X", "Y"): _fake_report(-5.0),
            ("Y", "Z"): _fake_report(-4.0),
            ("X", "Z"): _fake_report(-3.0),
        }
        edges = build_forest(table)
        assert [(e.u, e.v) for e in edges] == [("X", "Y"), ("Y", "Z")]

    def test_tie_break_is_lexicographic(self):
        table = {
            ("B", "C"): _fake_report(-2.0),
            ("A", "C"): _fake_report(-2.0),
            ("A", "B"): _fake_report(-2.0),
        }
        edges = build_forest(table)
        assert [(e.u, e.v) for e in edges] == [("A", "B"), ("A", "C")]

    def test_empty_table(self):
        assert build_forest({}) == []

    def test_all_independent_gives_empty_forest(self):
        table = {("X", "Y"): _fake_report(2.0), ("X", "Z"): _fake_report(0.0)}
        assert build_forest(table) == []

    def test_unordered_pair_keys_are_normalized(self):
        table = {("Y", "X"): _fake_report(-1.0)}
        edges = build_forest(table)
        assert [(e.u, e.v) for e in edges] == [("X", "Y")]

    def test_recovers_planted_edge_from_data(self):
        rng = np.random.default_rng(77)
        xs = rng.standard_normal(500)
        ys = xs.copy()
        zs = rng.standard_normal(500)
        table = {}
        for (na, a), (nb, b) in itertools.combinations(
                [("X", xs), ("Y", ys), ("Z", zs)], 2):
            table[(na, nb)] = analyze_pair(a, b, joint_levels=5)
        edges = build_forest(table)
        assert [(e.u, e.v) for e in edges] == [("X", "Y")]
