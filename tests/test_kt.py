import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ktmix.kt import _LGAMMA_HALF, _T, KtState, _lgamma, kt_log_prob_closed_form


class TestBasics:
    def test_new_state_is_empty(self):
        st = KtState(2)
        assert st.total == 0
        assert st.log_prob == 0.0

    def test_alphabet_of_one_is_degenerate(self):
        st = KtState(1)
        for _ in range(20):
            assert st.predictive(0) == 1.0
            st.observe(0)
        assert st.log_prob == 0.0

    def test_symmetric_first_predictive(self):
        assert KtState(4).predictive(2) == 0.25
        assert KtState(3).predictive(0) == pytest.approx(1 / 3)
        assert KtState(2).predictive(1) == 0.5

    def test_predictive_after_one_observation(self):
        st = KtState(2)
        st.observe(0)
        assert st.predictive(0) == pytest.approx(0.75)   # (1 + 1/2) / (1 + 1)
        assert st.predictive(1) == pytest.approx(0.25)

    def test_predictive_does_not_mutate(self):
        st = KtState(3)
        st.predictive(1)
        assert st.total == 0 and not st.counts

    def test_symbol_range_checked(self):
        st = KtState(2)
        with pytest.raises(ValueError):
            st.predictive(2)
        with pytest.raises(ValueError):
            st.observe(-1)
        with pytest.raises(ValueError):
            KtState(0)


class TestSequences:
    def test_two_identical_symbols(self):
        st = KtState(2)
        st.observe(0)
        st.observe(0)
        assert st.log_prob == pytest.approx(math.log(3 / 8), abs=1e-14)

    def test_two_distinct_symbols(self):
        st = KtState(2)
        st.observe(0)
        st.observe(1)
        assert st.log_prob == pytest.approx(math.log(1 / 8), abs=1e-14)

    def test_order_does_not_matter(self):
        a, b = KtState(2), KtState(2)
        for s in (0, 0, 1, 1):
            a.observe(s)
        for s in (0, 1, 0, 1):
            b.observe(s)
        assert a.log_prob == pytest.approx(b.log_prob, abs=1e-12)

    def test_observe_returns_the_increment(self):
        st = KtState(3)
        before = st.log_prob
        inc = st.observe(2)
        assert st.log_prob == before + inc
        assert inc == pytest.approx(math.log(1 / 3))


class TestClosedForm:
    def test_matches_hand_values(self):
        assert kt_log_prob_closed_form({0: 2}, 2) == pytest.approx(math.log(3 / 8), abs=1e-12)
        assert kt_log_prob_closed_form({0: 1, 1: 1}, 2) == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_empty_counts_give_log_one(self):
        for m in (1, 2, 5, 100):
            assert kt_log_prob_closed_form({}, m) == 0.0

    def test_accepts_sequences(self):
        assert kt_log_prob_closed_form([2, 0], 2) == pytest.approx(math.log(3 / 8), abs=1e-12)

    def test_agrees_with_sequential_on_random_counts(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            n = int(rng.integers(1, 10_000))
            symbols = rng.integers(0, m, size=n)
            st = KtState(m)
            for s in symbols.tolist():
                st.observe(s)
            counts = {int(s): int(c) for s, c in zip(*np.unique(symbols, return_counts=True))}
            assert st.log_prob == pytest.approx(
                kt_log_prob_closed_form(counts, m), abs=1e-10
            )


class TestBatch:
    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(9)
        for m in (2, 5, 60):
            symbols = rng.integers(0, m, size=2000)
            seq, batch = KtState(m), KtState(m)
            for s in symbols.tolist():
                seq.observe(s)
            inc = batch.observe_many(symbols)
            assert batch.log_prob == pytest.approx(seq.log_prob, abs=1e-9)
            assert inc == pytest.approx(seq.log_prob, abs=1e-9)
            assert batch.counts == seq.counts

    def test_batch_is_resumable(self):
        rng = np.random.default_rng(10)
        symbols = rng.integers(0, 4, size=500)
        whole, split = KtState(4), KtState(4)
        whole.observe_many(symbols)
        split.observe_many(symbols[:123])
        split.observe_many(symbols[123:])
        assert split.log_prob == pytest.approx(whole.log_prob, abs=1e-10)

    def test_count_table_batch(self):
        seq, batch = KtState(5), KtState(5)
        for s in (4, 1, 4, 4, 0):
            seq.observe(s)
        batch.observe(4)
        inc = batch.observe_counts([0, 1, 4], [1, 1, 2])
        assert batch.counts == seq.counts and batch.total == seq.total
        assert batch.log_prob == pytest.approx(seq.log_prob, abs=1e-12)
        assert inc == pytest.approx(seq.log_prob - math.log(1 / 5), abs=1e-12)

    def test_count_table_validation(self):
        st = KtState(4)
        with pytest.raises(ValueError):
            st.observe_counts([2, 1], [1, 1])      # not increasing
        with pytest.raises(ValueError):
            st.observe_counts([1, 1], [1, 1])      # repeated symbol
        with pytest.raises(ValueError):
            st.observe_counts([1, 4], [1, 1])      # out of range
        with pytest.raises(ValueError):
            st.observe_counts([1, 2], [1, 0])      # zero count
        with pytest.raises(ValueError):
            st.observe_counts([1, 2], [1])
        assert st.total == 0 and not st.counts

    def test_empty_batch(self):
        st = KtState(3)
        assert st.observe_many([]) == 0.0
        assert st.total == 0



class TestBatchCounts:
    """A batch folded into an empty state waits as arrays until its counts are read."""

    SYMBOLS = [4, 1, 4, 4, 0, 2, 4, 1]

    @staticmethod
    def sequential(symbols, m=6):
        st = KtState(m)
        for s in symbols:
            st.observe(s)
        return st

    @staticmethod
    def assert_same_state(got, want):
        assert got.counts == want.counts
        assert got.total == want.total
        assert got.log_prob == pytest.approx(want.log_prob, abs=1e-12)

    def test_predictive_then_observe_after_a_batch(self):
        seq = self.sequential(self.SYMBOLS)
        batch = KtState(6)
        batch.observe_many(self.SYMBOLS)
        for s in range(6):
            assert batch.predictive(s) == seq.predictive(s)
        assert batch.observe(4) == seq.observe(4)
        assert batch.observe(5) == seq.observe(5)
        self.assert_same_state(batch, seq)

    def test_observe_first_after_a_batch(self):
        seq = self.sequential(self.SYMBOLS + [1])
        batch = KtState(6)
        batch.observe_counts([0, 1, 2, 4], [1, 2, 1, 4])
        batch.observe(1)
        self.assert_same_state(batch, seq)

    def test_counts_read_first_after_a_batch(self):
        seq = self.sequential(self.SYMBOLS)
        batch = KtState(6)
        batch.observe_many(self.SYMBOLS)
        assert batch.counts == {0: 1, 1: 2, 2: 1, 4: 4}
        self.assert_same_state(batch, seq)

    def test_batch_keeps_no_view_of_the_callers_arrays(self):
        symbols, counts = np.array([1, 3]), np.array([2, 5])
        st = KtState(4)
        st.observe_counts(symbols, counts)
        symbols[:], counts[:] = 0, 1
        assert st.counts == {1: 2, 3: 5}

    @pytest.mark.parametrize("prior", ["sequential", "batch", "batch-then-read"])
    def test_batch_into_a_state_with_counts(self, prior):
        head, tail = self.SYMBOLS[:5], self.SYMBOLS[5:] + [5, 4, 1]
        seq = self.sequential(head + tail)
        st = KtState(6)
        if prior == "sequential":
            for s in head:
                st.observe(s)
        else:
            st.observe_many(head)
            if prior == "batch-then-read":
                assert st.counts == {0: 1, 1: 1, 4: 3}
        st.observe_many(tail)
        self.assert_same_state(st, seq)


class TestUniversality:
    def test_kraft_equality_by_enumeration(self):
        for m in (2, 3):
            for n in range(1, 7):
                total = 0.0
                for seq in itertools.product(range(m), repeat=n):
                    st = KtState(m)
                    for s in seq:
                        st.observe(s)
                    total += math.exp(st.log_prob)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_per_step_normalization(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            st = KtState(m)
            st.observe_many(rng.integers(0, m, size=int(rng.integers(0, 200))))
            assert sum(st.predictive(s) for s in range(m)) == pytest.approx(1.0, abs=1e-14)

    def test_codelength_approaches_entropy(self):
        # Bernoulli(0.2): the per-symbol codelength converges to the entropy.
        rng = np.random.default_rng(20)
        n = 2**17
        symbols = (rng.random(n) < 0.2).astype(np.int64)
        st = KtState(2)
        st.observe_many(symbols)
        entropy = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
        assert abs(-st.log_prob / n - entropy) <= 0.02

    def test_pointwise_redundancy_bound(self):
        # -log Q + log P <= (m-1)/2 * ln n + 2 against the true i.i.d. source
        rng = np.random.default_rng(31)
        for m, probs in ((2, [0.3, 0.7]), (3, [0.2, 0.5, 0.3]), (4, [0.25] * 4)):
            probs = np.asarray(probs)
            for n in (100, 1000, 5000):
                for _ in range(3):
                    symbols = rng.choice(m, size=n, p=probs)
                    st = KtState(m)
                    st.observe_many(symbols)
                    log_p = float(np.log(probs[symbols]).sum())
                    assert -st.log_prob + log_p <= 0.5 * (m - 1) * math.log(n) + 2.0


class TestLogGamma:
    """_lgamma is bitwise scipy.special.gammaln on the multiples of 1/2 the KT closed form takes."""

    @pytest.fixture
    def gammaln(self):
        return pytest.importorskip("scipy.special").gammaln

    @staticmethod
    def assert_bitwise(xs, gammaln):
        got = np.array([_lgamma(x) for x in xs.tolist()])
        np.testing.assert_array_equal(got, gammaln(xs))

    def test_every_half_integer_up_to_2_17(self, gammaln):
        self.assert_bitwise(np.arange(1, 2**18 + 1) * 0.5, gammaln)

    def test_random_half_integers_up_to_1e9(self, gammaln):
        # mostly x > 1e8 (Stirling alone), some in [1000, 1e8] (the short series)
        rng = np.random.default_rng(13)
        self.assert_bitwise(rng.integers(1, 2 * 10**9, size=10_000, endpoint=True) * 0.5, gammaln)

    def test_table_entries(self):
        assert _LGAMMA_HALF.shape == (_T,)
        assert _LGAMMA_HALF.tolist() == [_lgamma(c + 0.5) for c in range(_T)]


def test_import_loads_no_scipy():
    """import ktmix and its CLI load no scipy module: scipy is the tests' reference only."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import ktmix, ktmix.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


class TestTableEdge:
    """Count tables whose counts straddle the end of the lnG(c + 1/2) table at _T = 4096."""

    @pytest.mark.parametrize("counts", [(4095,), (4096,), (4097,), (4095, 4096, 4097)], ids=str)
    @pytest.mark.parametrize("prior", [(), (0,), (0, 1, 1)], ids=["empty", "one", "three"])
    def test_fold_across_the_table_edge(self, counts, prior):
        m = len(counts) + 1
        symbols = list(range(len(counts)))
        seq, batch = KtState(m), KtState(m)
        for s in prior:
            seq.observe(s)
            batch.observe(s)
        for s, c in zip(symbols, counts):
            for _ in range(c):
                seq.observe(s)
        inc = batch.observe_counts(symbols, counts)
        assert batch.counts == seq.counts
        assert batch.log_prob == pytest.approx(seq.log_prob, abs=1e-9)
        assert batch.log_prob == pytest.approx(kt_log_prob_closed_form(seq.counts, m), abs=1e-9)
        assert inc == pytest.approx(seq.log_prob - sum(map(KtState(m).observe, prior)), abs=1e-9)

    def test_million_count_equals_the_closed_form(self):
        # Into an empty state only: a fold into one holding counts subtracts two
        # lnG near 1.3e7, where one float64 ulp (1.9e-9) is over the 1e-9 tolerance.
        st = KtState(3)
        st.observe_counts([0, 1], [1, 10**6])
        assert st.log_prob == pytest.approx(kt_log_prob_closed_form({0: 1, 1: 10**6}, 3), abs=1e-9)
