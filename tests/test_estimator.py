import copy
import math
import pickle

import numpy as np
import pytest

from ktmix.estimator import LevelWeights, MixtureEstimator, level_alphabet
from ktmix.measure import (
    CountingMeasure,
    Interval,
    LebesgueMeasure,
    OutOfSupportError,
    scaled,
    sum_measure,
)
from ktmix.partition import CustomPartition, HistogramSequence

UNIT = Interval(0.0, 1.0, True, False)


def unit_uniform_estimator(max_level=2):
    """Bounded setup where every level assigns density exactly 1 to the first sample."""
    part = HistogramSequence(0.5, 0.25, support=UNIT, max_level=max_level)
    return MixtureEstimator(part, LebesgueMeasure(UNIT))


class TestLevelWeights:
    def test_default_sums_below_one(self):
        w = LevelWeights.default(16)
        assert sum(w.values) == pytest.approx(1 - 1 / 18, abs=1e-15)


class TestConstruction:
    def test_initial_log_density_is_log_weight_sum(self):
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=16), LebesgueMeasure())
        assert est.log_density() == pytest.approx(math.log(17 / 18), abs=1e-12)
        assert est.codelength_bits() == pytest.approx(-math.log2(17 / 18), abs=1e-12)
        assert est.codelength_bits() > 0

    def test_non_refining_partition_rejected(self):
        broken = CustomPartition([[0.5], [0.25, 0.75]])  # level 2 drops the 0.5 cut
        with pytest.raises(ValueError, match="refinement"):
            MixtureEstimator(broken, LebesgueMeasure())

    def test_level_alphabet_is_cached_per_measure(self):
        part = HistogramSequence(0.0, 1.0, max_level=3)
        lebesgue, doubled = LebesgueMeasure(), scaled(LebesgueMeasure(), 2.0)
        first = level_alphabet(part, lebesgue, 3)
        assert level_alphabet(part, lebesgue, 3) is first
        assert not first[0].flags.writeable and not first[1].flags.writeable
        other = level_alphabet(part, doubled, 3)       # a shared partition, another measure
        np.testing.assert_allclose(other[1], first[1] + math.log(2.0), rtol=0, atol=1e-12)
        fresh = HistogramSequence(0.0, 1.0, max_level=3)
        np.testing.assert_array_equal(level_alphabet(fresh, lebesgue, 3)[1], first[1])

    def test_single_level_degenerate_model(self):
        part = HistogramSequence(0.5, 0.25, support=UNIT, max_level=0)
        est = MixtureEstimator(part, LebesgueMeasure(UNIT))
        for y in (0.1, 0.9, 0.5):
            assert est.observe(y) == pytest.approx(0.0, abs=1e-15)
        assert est.log_density() == pytest.approx(math.log(0.5), abs=1e-15)  # w_0 = 1/2


class TestObserve:
    def test_first_observation_has_density_one_on_uniform_setup(self):
        est = unit_uniform_estimator(max_level=2)
        assert est.observe(0.37) == pytest.approx(0.0, abs=1e-14)

    def test_level_two_contribution_on_the_line(self):
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=2), LebesgueMeasure())
        est.observe(0.3)
        lld = est.level_log_densities()
        assert lld[2] == pytest.approx(math.log(0.25), abs=1e-14)  # KT 1/4 over unit cell

    def test_infinite_cells_contribute_zero_density(self):
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=3), LebesgueMeasure())
        est.observe(0.3)
        lld = est.level_log_densities()
        assert lld[0] == -math.inf            # level 0 cell is the whole line
        assert lld[1] == -math.inf            # both level-1 cells are half-lines
        assert math.isfinite(est.log_density())

    def test_out_of_support_rejected(self):
        est = unit_uniform_estimator()
        with pytest.raises(OutOfSupportError):
            est.observe(1.0)
        with pytest.raises(OutOfSupportError):
            est.observe_many(np.array([0.2, 1.7]))
        with pytest.raises(OutOfSupportError):
            est.density_at(-0.5)
        assert est.n == 0

    def test_non_finite_samples_rejected(self):
        for measure, y in ((LebesgueMeasure(), math.nan), (LebesgueMeasure(UNIT), math.nan),
                           (CountingMeasure.unit_integers(), math.inf),
                           (CountingMeasure.unit_integers(), -math.inf)):
            est = MixtureEstimator(HistogramSequence(0.0, 1.0, support=measure, max_level=4), measure)
            prior = est.log_density()
            with pytest.raises(OutOfSupportError):
                est.observe(y)
            with pytest.raises(OutOfSupportError) as info:
                est.observe_many(np.array([0.0, y]))
            assert info.value.index == 1
            with pytest.raises(OutOfSupportError):
                est.density_at(y)
            assert est.n == 0 and est.log_density() == prior

    def test_batch_support_error_names_first_bad_sample(self):
        est = unit_uniform_estimator()
        with pytest.raises(OutOfSupportError) as info:
            est.observe_many(np.array([0.2, 0.4, 1.7, -3.0]))
        assert info.value.index == 2
        assert str(info.value) == "value 1.7 lies outside the support"

    def test_hand_computed_three_sample_mixture(self):
        # Direct arithmetic oracle for ys on the bounded uniform setup, K = 2.
        ys = [0.3, 0.6, 0.2]
        est = unit_uniform_estimator(max_level=2)
        total = 0.0
        for y in ys:
            total += est.observe(y)

        w = [1 / 2, 1 / 6, 1 / 12]
        g0 = 1.0                                     # one cell, mass 1
        # level 1 labels (0, 1, 0) over 2 cells of mass 1/2
        q1 = (0.5 / 1.0) * (0.5 / 2.0) * (1.5 / 3.0)
        g1 = q1 / 0.5**3
        # level 2 labels (1, 2, 0) over 4 cells of mass 1/4
        q2 = (0.5 / 2.0) * (0.5 / 3.0) * (0.5 / 4.0)
        g2 = q2 / 0.25**3
        expected = math.log(w[0] * g0 + w[1] * g1 + w[2] * g2) - math.log(sum(w))
        assert total == pytest.approx(expected, abs=1e-12)
        # early codelength stays near the weight deficit
        assert abs(est.codelength_bits() + math.log2(sum(w))) <= 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(77)
        ys = rng.standard_normal(300)
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=8), LebesgueMeasure())
        est.observe_many(ys)
        shuffled = ys.copy()
        rng.shuffle(shuffled)
        est2 = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=8), LebesgueMeasure())
        est2.observe_many(shuffled)
        assert est.log_density() == pytest.approx(est2.log_density(), abs=1e-9)

    @pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda est: pickle.loads(pickle.dumps(est))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_resumes_the_stream(self, duplicate):
        est = unit_uniform_estimator(max_level=6)
        est.observe(0.3)
        est.density_at(0.5)                 # the one-sample lookup tables exist now
        twin = duplicate(est)
        assert twin.observe(0.7) == est.observe(0.7)
        assert twin.density_at(0.1) == est.density_at(0.1)
        assert twin.log_density() == est.log_density()

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(8)
        ys = rng.standard_normal(500)
        seq = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=6), LebesgueMeasure())
        total = sum(seq.observe(float(y)) for y in ys)
        batch = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=6), LebesgueMeasure())
        inc = batch.observe_many(ys)
        assert batch.log_density() == pytest.approx(seq.log_density(), abs=1e-9)
        assert inc == pytest.approx(total, abs=1e-9)
        assert batch.n == seq.n == 500


class TestDensityAt:
    def test_fresh_uniform_setup_gives_one(self):
        est = unit_uniform_estimator(max_level=2)
        for y in (0.05, 0.3, 0.8):
            assert est.density_at(y) == pytest.approx(1.0, abs=1e-14)

    def test_matches_observe_increment(self):
        rng = np.random.default_rng(4)
        warm = rng.random(50)
        a = unit_uniform_estimator(max_level=4)
        b = unit_uniform_estimator(max_level=4)
        a.observe_many(warm)
        b.observe_many(warm)
        for y in (0.11, 0.52, 0.97):
            predicted = a.density_at(y)
            assert predicted == pytest.approx(math.exp(b.observe(y)), abs=1e-12)
            a.observe(y)

    def test_gaussian_shape(self):
        rng = np.random.default_rng(15)
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=10), LebesgueMeasure())
        est.observe_many(rng.standard_normal(10_000))
        assert est.density_at(0.0) > est.density_at(4.0)

    @pytest.mark.parametrize("n_obs", [0, 10, 200])
    def test_predictive_density_integrates_below_one(self, n_obs):
        rng = np.random.default_rng(n_obs)
        est = unit_uniform_estimator(max_level=8)
        if n_obs:
            est.observe_many(rng.random(n_obs))
        grid = (np.arange(10_000) + 0.5) / 10_000
        total = sum(est.density_at(float(x)) for x in grid) / 10_000
        assert total <= 1 + 1e-3

    def test_mixed_measure_mass_including_atom(self):
        measure = sum_measure(LebesgueMeasure(UNIT), CountingMeasure.from_atoms([1.0]))
        rng = np.random.default_rng(3)
        z = np.where(rng.random(200) < 0.5, 1.0, rng.random(200))
        part = HistogramSequence(float(z.mean()), float(z.std()), support=measure, max_level=8)
        est = MixtureEstimator(part, measure)
        est.observe_many(z)
        grid = (np.arange(10_000) + 0.5) / 10_000
        mass = sum(est.density_at(float(x)) for x in grid) / 10_000
        mass += est.density_at(1.0)  # atom weight 1
        assert mass <= 1 + 1e-3
        # the atom should carry roughly half of the predictive mass by now
        assert est.density_at(1.0) > 0.25


class TestLevelPosterior:
    def test_prior_proportional_to_weights(self):
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=5), LebesgueMeasure())
        post = est.level_posterior()
        w = np.asarray(LevelWeights.default(5).values)
        assert np.allclose(post, w / w.sum(), atol=1e-12)
        assert sum(post) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_concentrates_on_interior_levels(self):
        rng = np.random.default_rng(99)
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=16), LebesgueMeasure())
        est.observe_many(rng.standard_normal(2**14))
        post = est.level_posterior()
        best = int(np.argmax(post))
        assert 0 < best < 16
        assert sum(post) == pytest.approx(1.0, abs=1e-12)

    def test_repeated_atom_concentrates_on_isolating_level(self):
        measure = CountingMeasure.unit_integers()
        part = HistogramSequence(0.0, 1.0, support=measure, max_level=10)

        def mass_around(k, y):
            raw_to_alpha, log_eta = level_alphabet(part, measure, k)
            return math.exp(log_eta[raw_to_alpha[np.searchsorted(part.level_map(k).cuts, y)]])

        # smallest level whose cell around 3.0 has mass exactly 1 (the atom alone)
        isolating = min(k for k in range(11) if mass_around(k, 3.0) == 1.0)
        est = MixtureEstimator(part, measure)
        est.observe_many(np.full(400, 3.0))
        assert int(np.argmax(est.level_posterior())) == isolating

    def test_all_dead_levels_raise(self):
        # Lebesgue on the line with only unbounded levels: every level dies.
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=1), LebesgueMeasure())
        est.observe(0.5)
        assert est.codelength_bits() == math.inf
        with pytest.raises(ValueError):
            est.level_posterior()


class TestKlApproximationOracle:
    """Piecewise approximations from exact cell probabilities improve with depth."""

    @staticmethod
    def _triangular_cell_terms(a, b):
        # f(x) = 2x on [0, 1): P = b^2 - a^2, integral of f ln f via antiderivative
        def antideriv(x):
            return 0.0 if x == 0.0 else x * x * math.log(2 * x) - x * x / 2
        p = b * b - a * a
        return p, antideriv(b) - antideriv(a)

    def test_kl_divergence_decreases_in_depth(self):
        part = HistogramSequence(0.5, 0.25, support=UNIT, max_level=10)
        divergences = []
        for k in range(11):
            # f lives on [0, 1), so each cell counts through its part in [0, 1]
            cuts = part.level_map(k).cuts
            lows = np.clip(np.append(-math.inf, cuts), 0.0, 1.0)
            highs = np.clip(np.append(cuts, math.inf), 0.0, 1.0)
            d = 0.0
            for lower, upper in zip(lows.tolist(), highs.tolist()):
                width = upper - lower
                if width == 0.0:
                    continue
                p, f_log_f = self._triangular_cell_terms(lower, upper)
                if p > 0:
                    d += f_log_f - p * math.log(p / width)
            divergences.append(d)
        assert divergences[0] > 0
        for shallow, deep in zip(divergences, divergences[1:]):
            assert deep < shallow
        assert divergences[10] < 1e-4


class TestExportState:
    def test_snapshot_contents(self):
        est = unit_uniform_estimator(max_level=2)
        est.observe_many(np.array([0.3, 0.6, 0.2]))
        state = est.export_state()
        assert state["n"] == 3
        assert len(state["levels"]) == 3
        level1 = state["levels"][1]
        assert level1["alphabet_size"] == 2
        assert level1["counts"] == {"0": 2, "1": 1}
        assert state["log_mixture_density"] == pytest.approx(est.log_density())

    def test_dead_levels_export_minus_infinity(self):
        est = MixtureEstimator(HistogramSequence(0.0, 1.0, max_level=1), LebesgueMeasure())
        est.observe(0.1)
        state = est.export_state()
        assert state["levels"][0]["log_density"] == -math.inf
