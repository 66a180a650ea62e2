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
from scipy.special import gammaln

__all__ = ["KtState", "kt_log_prob_closed_form"]


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
            terms = gammaln(after + 0.5) - gammaln(before + 0.5)
        else:
            self._counts, self._batch = None, (symbols, counts)
            terms = gammaln(counts + 0.5) - gammaln(0.5)
        added = int(counts.sum())
        half_m = 0.5 * self.alphabet_size
        numerator = float(np.add.reduce(terms))
        denominator = float(gammaln(self.total + added + half_m) - gammaln(self.total + half_m))
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
    base = float(gammaln(0.5))
    for sym, cnt in items:
        if not 0 <= sym < m:
            raise ValueError(f"symbol {sym} out of range")
        if cnt < 0:
            raise ValueError("counts must be nonnegative")
        if cnt:
            result += float(gammaln(cnt + 0.5)) - base
            total += int(cnt)
    result += float(gammaln(0.5 * m)) - float(gammaln(total + 0.5 * m))
    return result
