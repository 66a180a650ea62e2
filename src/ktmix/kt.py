"""Krichevsky-Trofimov probability assignment on a finite alphabet.

After n observations with per-symbol counts c[x], the predictive probability
of symbol x is (c[x] + 1/2) / (n + m/2) for alphabet size m.  The induced
sequence probability sums to exactly 1 over all length-n sequences, and its
per-symbol codelength approaches the source entropy for any i.i.d. source.

The sequence probability depends only on the final counts, through the
closed Gamma-function form

    Q = Gamma(m/2) * prod_x Gamma(c[x] + 1/2) / (Gamma(n + m/2) * Gamma(1/2)^m).

So a batch is folded in from its count table alone (observe_counts), with
one vectorized log-Gamma difference per distinct symbol; observe() runs the
one-step recursion for streaming use.  Both update the same counts, may be
interleaved freely, and agree up to float rounding.  All accumulation
happens in natural-log domain.

The log-Gamma ports Cephes lgam (S. L. Moshier), which scipy.special.gammaln
runs, for x > 0.  It calls math.log, the libm log the C code calls, in the same
order, so it is bitwise equal to gammaln on multiples of 1/2, as every argument
here is (c + 1/2, n + m/2).  Above 13 it keeps Stirling's series with the full
polynomial where Cephes switches to a shorter series at 1000 and to Stirling
alone above 1e8: on multiples of 1/2 both give the same bits there.  Folds read
a table of lnG(c + 1/2) for c < _T = 4096 and call the port for larger counts.

Counts are kept only for the symbols seen, since level alphabets can be
large while samples touch few cells.  A batch folded into an empty state is
kept as its sorted (symbols, counts) arrays, and the per-symbol dict that
observe() and predictive() read is built from them on first use: a batch
fit that only needs the closed-form sum never builds it.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

__all__ = ["KtState", "kt_log_prob_closed_form"]

# Cephes lgam coefficients: _A Stirling's series, _B / _C lnG on [2, 3).
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
      -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
_C = (-3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
      -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)


def _lgamma(x: float) -> float:
    """ln Gamma(x) for x > 0, bitwise equal to scipy.special.gammaln on multiples of 1/2."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        x += p - 2.0
        num, den = _B[0], x + _C[0]
        for b, c in zip(_B[1:], _C[1:]):
            num, den = num * x + b, den * x + c
        return math.log(z) + x * num / den
    p = 1.0 / (x * x)
    return ((x - 0.5) * math.log(x) - x + 0.91893853320467274178        # ln sqrt(2 pi)
            + ((((_A[0] * p + _A[1]) * p + _A[2]) * p + _A[3]) * p + _A[4]) / x)


_T = 4096
_LGAMMA_HALF = np.array([_lgamma(c + 0.5) for c in range(_T)])   # lnG(c + 1/2), c < _T


def _lgamma_half(counts: np.ndarray) -> np.ndarray:
    """lnG(counts + 1/2) for an int64 array of nonnegative counts."""
    big = counts >= _T
    out = _LGAMMA_HALF[np.where(big, 0, counts)]
    out[big] = [_lgamma(c + 0.5) for c in counts[big].tolist()]
    return out


class KtState:
    """Counts and accumulated log-probability for one alphabet.

    counts maps each symbol seen to its count.  A batch folded into an empty
    state waits as its sorted (symbols, counts) arrays until counts, observe()
    or predictive() first asks for the dict; a batch folded into a state that
    already holds counts looks its prior counts up in the dict and updates it.

    Single-writer: observe() mutates in place and returns the log predictive
    increment.  Distinct states may be updated concurrently.
    """

    __slots__ = ("alphabet_size", "_counts", "_batch", "total", "log_prob")

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise ValueError("alphabet size must be at least 1")
        self.alphabet_size = int(alphabet_size)
        self._counts: dict[int, int] | None = {}
        self._batch = None   # (symbols, counts) arrays while _counts is None
        self.total = 0
        self.log_prob = 0.0

    @property
    def counts(self) -> dict[int, int]:
        """Count per symbol seen; builds the dict of a waiting batch once."""
        if self._counts is None:
            symbols, counts = self._batch
            self._counts = dict(zip(symbols.tolist(), counts.tolist()))
            self._batch = None
        return self._counts

    def predictive(self, symbol: int) -> float:
        """(c[x] + 1/2) / (n + m/2); does not mutate the state."""
        if not 0 <= symbol < self.alphabet_size:
            raise ValueError(f"symbol {symbol} out of range for alphabet of {self.alphabet_size}")
        try:
            count = self._counts.get(symbol, 0)
        except AttributeError:   # _counts is None: a batch waits to become the dict
            count = self.counts.get(symbol, 0)
        return (count + 0.5) / (self.total + 0.5 * self.alphabet_size)

    def log_predictive(self, symbol: int) -> float:
        return math.log(self.predictive(symbol))

    def observe(self, symbol: int) -> float:
        inc = self.log_predictive(symbol)   # leaves _counts a dict
        self._counts[symbol] = self._counts.get(symbol, 0) + 1
        self.total += 1
        self.log_prob += inc
        return inc

    def observe_counts(self, symbols, counts) -> float:
        """Fold in counts[i] occurrences of symbols[i]; returns the log-probability increment.

        symbols must be strictly increasing and counts positive.  The
        increment is the closed form sum_x [lnG(c[x] + a[x] + 1/2) - lnG(c[x] + 1/2)]
        - [lnG(n + N + m/2) - lnG(n + m/2)] for prior counts c, n and added
        counts a, N: the sequential product, in any order of the batch.
        """
        symbols = np.array(symbols, dtype=np.int64)   # copies: the state may keep them
        counts = np.array(counts, dtype=np.int64)
        if symbols.ndim != 1 or symbols.shape != counts.shape:
            raise ValueError("symbols and counts must be one-dimensional and of equal length")
        if symbols.size == 0:
            return 0.0
        if symbols[0] < 0 or symbols[-1] >= self.alphabet_size:
            raise ValueError("symbol out of range in batch")
        if symbols.size > 1 and not np.all(symbols[1:] > symbols[:-1]):
            raise ValueError("batch symbols must be strictly increasing")
        if counts.min() < 1:
            raise ValueError("batch counts must be positive")
        return self._fold(symbols, counts)

    def _fold(self, symbols: np.ndarray, counts: np.ndarray) -> float:
        """observe_counts on a batch already known to be valid (an empty one adds nothing).

        An empty state keeps the arrays.
        """
        if self.total:
            prior = self.counts
            keys = symbols.tolist()
            before = np.fromiter(map(prior.get, keys, repeat(0)), dtype=np.int64, count=len(keys))
            after = before + counts
            prior.update(zip(keys, after.tolist()))
            terms = _lgamma_half(after) - _lgamma_half(before)
        else:
            self._counts, self._batch = None, (symbols, counts)
            terms = _lgamma_half(counts) - _LGAMMA_HALF[0]
        added = int(counts.sum())
        half_m = 0.5 * self.alphabet_size
        numerator = float(np.add.reduce(terms))
        denominator = _lgamma(self.total + added + half_m) - _lgamma(self.total + half_m)
        self.total += added
        inc = numerator - denominator
        self.log_prob += inc
        return inc

    def observe_many(self, symbols) -> float:
        """Observe a whole batch; returns the total log-probability increment."""
        symbols = np.asarray(symbols, dtype=np.int64)
        if symbols.ndim != 1:
            raise ValueError("symbol batch must be one-dimensional")
        uniq, batch_counts = np.unique(symbols, return_counts=True)
        return self.observe_counts(uniq, batch_counts)


def kt_log_prob_closed_form(counts, alphabet_size: int) -> float:
    """log of the sequence probability from final counts, via log-Gamma.

    Equals Gamma(m/2) * prod_x Gamma(c[x]+1/2) / (Gamma(n+m/2) * Gamma(1/2)^m)
    in log form, summed per symbol in plain Python; it is the reference that
    both KtState paths are checked against.  Symbols with zero count
    contribute nothing.
    """
    if isinstance(counts, dict):
        items = counts.items()
    else:
        items = enumerate(counts)
    m = int(alphabet_size)
    if m < 1:
        raise ValueError("alphabet size must be at least 1")
    total = 0
    result = 0.0
    base = _lgamma(0.5)
    for sym, cnt in items:
        if not 0 <= sym < m:
            raise ValueError(f"symbol {sym} out of range")
        if cnt < 0:
            raise ValueError("counts must be nonnegative")
        if cnt:
            result += _lgamma(int(cnt) + 0.5) - base
            total += int(cnt)
    result += _lgamma(0.5 * m) - _lgamma(total + 0.5 * m)
    return result
