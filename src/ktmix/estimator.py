"""Universal mixture density estimation against a reference measure.

One KT state per partition level models the sequence of level-k cell labels;
the level-k density estimate is that KT probability divided by the reference
masses of the visited cells, and the reported density is the weighted mixture
over levels

    g^n(y^n) = sum_k w_k * Q_k(cells) / prod_i eta(cell_i).

A pair of variables mixes over level pairs (j, k) of product cells, so one
core serves both estimators: _Axis holds one variable's levels (cut points,
cell alphabets, reference masses, sample gate) and _LevelMixture the weighted
grid of KT states, one level per axis.  MixtureEstimator is the one-axis
grid, joint.JointEstimator the two-axis grid; each keeps its own loops.

Densities are Radon-Nikodym derivatives with respect to the configured
measure.  A cell of infinite reference mass contributes density zero at its
level (never an error): a finite probability spread over infinite mass has
derivative zero, and the finite-mass levels keep the mixture alive.  For the
same reason cells of zero reference mass, among them every cell outside the
support, are dropped from the level alphabets up front.

Codelengths for continuous data are differential and may be negative;
counting-measure codelengths with unit weights are literal code lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .kt import KtState
from .measure import OutOfSupportError, ReferenceMeasure
from .partition import Partition

__all__ = ["LevelWeights", "MixtureEstimator", "level_alphabet"]

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class LevelWeights:
    """The level prior w_k = 1/((k+1)(k+2)), k = 0..max_level, defined once.

    Its heavy tail keeps deep levels alive, and its truncated sum 1 - 1/(K+2)
    stays below 1, so the mixture is a sub-probability.  The estimators' grid
    weights and any recomputation of a codelength outside them read default().
    """

    values: tuple

    @classmethod
    def default(cls, max_level: int) -> "LevelWeights":
        return cls(tuple(1.0 / ((k + 1) * (k + 2)) for k in range(max_level + 1)))


def level_alphabet(partition: Partition, measure: ReferenceMeasure, k: int):
    """Index maps for the level-k alphabet: cells with positive reference mass.

    Returns (raw_to_alpha, log_eta) where raw_to_alpha sends the raw cell
    index from a cut-point search to the alphabet index (-1 if the cell has
    no mass) and log_eta holds the log reference mass per alphabet cell
    (+inf allowed).  Every raw cell is priced with one masses_half_open call.
    The result is read-only and cached on the partition for the last measure
    it was asked with, so the partitions a fitted column keeps price their
    cells once for all the pairs it is in.
    """
    cached = partition._alphabets.get(k)
    if cached is not None and cached[0] is measure:
        return cached[1]
    cuts = partition.level_map(k).cuts
    eta = measure.masses_half_open(np.append(-math.inf, cuts), np.append(cuts, math.inf))
    keep = eta > 0
    alphabet = (np.where(keep, np.cumsum(keep) - 1, -1), np.log(eta[keep]))
    for table in alphabet:
        table.setflags(write=False)
    partition._alphabets[k] = (measure, alphabet)
    return alphabet


def _merge_runs(symbols: np.ndarray, counts: np.ndarray):
    """(distinct symbols, summed counts) of a non-decreasing symbol array."""
    if symbols.size == 0:
        return symbols, counts
    starts = np.flatnonzero(np.concatenate(([True], symbols[1:] != symbols[:-1])))
    return symbols[starts], np.add.reduceat(counts, starts)


def _dot(counts: np.ndarray, values: np.ndarray) -> float:
    """sum(counts * values) without BLAS.

    A BLAS dot product of more than ~10,000 terms wakes the BLAS worker
    threads, which then spin on the other cores after the call returns and
    make the timing of everything that follows depend on the scheduler.
    """
    return float(np.sum(counts * values))


def _codelength_bits(log_density: float) -> float:
    """-log2 of a density given by its natural log; +inf for density zero."""
    return math.inf if log_density == -math.inf else -log_density / LOG2


def _logsumexp(values: np.ndarray) -> float:
    hi = float(np.max(values))
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(float(np.sum(np.exp(values - hi))))


class _Axis:
    """One variable's levels, built once, and its sample gate.

    cuts, raw_to_alpha, log_eta and sizes hold per level the cut points, the
    raw-cell-to-alphabet map, the log reference masses and the alphabet size.
    """

    def __init__(self, partition: Partition, measure: ReferenceMeasure):
        if not partition.verify_refinement():
            raise ValueError("partition is not a refinement sequence: "
                             "some level drops a cut point of the level before")
        self.partition, self.measure = partition, measure
        levels = range(partition.max_level + 1)
        self.cuts = [partition.level_map(k).cuts for k in levels]
        self.raw_to_alpha, self.log_eta = zip(*(level_alphabet(partition, measure, k) for k in levels))
        self.sizes = [log_eta.size for log_eta in self.log_eta]

    def check(self, y: float, label: str = "value"):
        if not (self.partition.in_support(y) and self.measure.in_support(y)):
            raise OutOfSupportError(f"{label} {y!r} lies outside the support")

    def mask(self, ys: np.ndarray) -> np.ndarray:
        return self.partition.in_support_many(ys) & self.measure.in_support_many(ys)

    def alphas(self, y: float) -> list:
        """Alphabet index of y's cell at every level; -1 where the cell has no mass."""
        return [int(r2a[int(np.searchsorted(cuts, y, side="left"))])
                for r2a, cuts in zip(self.raw_to_alpha, self.cuts)]

    def finest(self, ys: np.ndarray) -> np.ndarray:
        """Raw finest-level cell of each sample: the joint's per-sample binning."""
        return np.searchsorted(self.cuts[-1], ys, side="left")

    def finest_counts(self, ys: np.ndarray) -> np.ndarray:
        """Number of samples in each raw finest-level cell, from one sort of a copy of ys.

        Cell j is (cuts[j-1], cuts[j]], so its count is the number of samples
        at most cuts[j] less the number at most cuts[j-1]: the table
        bincount(finest(ys)) gives, without a search per sample.
        """
        at_most = np.searchsorted(np.sort(ys), self.cuts[-1], side="right")
        return np.diff(at_most, prepend=0, append=ys.size)

    def ancestor_alphas(self, cells) -> list:
        """Alphabet index at every level of raw finest-level cells (Partition.ancestors)."""
        return [r2a[raws] for r2a, raws in zip(self.raw_to_alpha, self.partition.ancestors(cells))]


class _LevelMixture:
    """Grid of KT states over product cells, one level per axis; point (j, k) weighs w_j w_k.

    The weights are each axis's LevelWeights.default.  A grid point with an
    empty alphabet on some axis has no state and log density -inf.  Each
    observation of a subclass ends with _advance.
    """

    def __init__(self, axes):
        self._axes = axes
        self.n = 0
        self._log_w = np.log(reduce(np.multiply.outer, [
            np.asarray(LevelWeights.default(len(axis.sizes) - 1).values) for axis in axes]))
        sizes = reduce(np.multiply.outer, [np.asarray(axis.sizes, dtype=np.int64) for axis in axes])
        states = [KtState(int(m)) if m else None for m in sizes.flat]
        self._states = np.array(states, dtype=object).reshape(sizes.shape)
        self._ld = np.where(sizes > 0, 0.0, -math.inf)

    def _advance(self, count: int, old: float) -> float:
        """Count samples just folded in; the log-density increment since old."""
        self.n += count
        new = self.log_density()
        return new - old if new > -math.inf else -math.inf

    def log_density(self) -> float:
        """Accumulated log g^n; equals log(sum of the weights) at n = 0."""
        return _logsumexp((self._log_w + self._ld).ravel())

    def level_log_densities(self) -> np.ndarray:
        """Unweighted log density per level, or per level pair (j, k) of a joint; -inf if dead."""
        return self._ld.copy()


class MixtureEstimator(_LevelMixture):
    """Sequential level-mixture estimator for one variable; level k weighs 1/((k+1)(k+2)).

    Parameters
    ----------
    partition : Partition
        Refining cell family.
    measure : ReferenceMeasure
        Reference measure the density is taken against; its support
        determines which samples are legal.

    Single-writer during observation; the read-only queries (density_at,
    codelength_bits, level_posterior) may run concurrently between
    observations, and distinct estimators are fully independent.
    """

    def __init__(self, partition: Partition, measure: ReferenceMeasure):
        super().__init__((_Axis(partition, measure),))
        self.partition, self.measure = partition, measure

    # -- observation --------------------------------------------------------

    def observe(self, y: float) -> float:
        """Fold one sample in; returns the log predictive mixture density at y."""
        y = float(y)
        axis, = self._axes
        axis.check(y)
        old = self.log_density()
        for k, a in enumerate(axis.alphas(y)):
            if a < 0:
                self._ld[k] = -math.inf
                continue
            inc = self._states[k].observe(a)
            self._ld[k] += inc - axis.log_eta[k][a]
        return self._advance(1, old)

    def observe_many(self, ys) -> float:
        """Fold a batch in; returns the total log-density increment.

        Equivalent to sequential observe() calls up to float rounding.  The
        finest level's count table is read off the sorted batch; every
        coarser level's counts are sums of those, because the partition
        refines, and each level is scored from its count table in closed form.
        """
        ys = np.asarray(ys, dtype=float)
        if ys.ndim != 1:
            raise ValueError("sample batch must be one-dimensional")
        if ys.size == 0:
            return 0.0
        axis, = self._axes
        ok = axis.mask(ys)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise OutOfSupportError(f"value {float(ys[i])!r} lies outside the support", index=i)
        old = self.log_density()
        table = axis.finest_counts(ys)
        cells = np.flatnonzero(table)
        counts = table[cells]
        for k, alphas in enumerate(axis.ancestor_alphas(cells)):
            valid = alphas >= 0
            symbols, level_counts = _merge_runs(alphas[valid], counts[valid])
            state = self._states[k]
            inc = state.observe_counts(symbols, level_counts) if state is not None else 0.0
            if valid.all() and state is not None:
                self._ld[k] += inc - _dot(level_counts, axis.log_eta[k][symbols])
            else:
                self._ld[k] = -math.inf
        return self._advance(ys.size, old)

    # -- queries ------------------------------------------------------------

    def density_at(self, y: float) -> float:
        """One-step predictive mixture density at y, without mutating state."""
        y = float(y)
        axis, = self._axes
        axis.check(y)
        candidate = np.empty(len(self._states))
        for k, (state, a) in enumerate(zip(self._states, axis.alphas(y))):
            if state is None or a < 0:
                candidate[k] = -math.inf
            else:
                candidate[k] = self._ld[k] + state.log_predictive(a) - axis.log_eta[k][a]
        old = self.log_density()
        if old == -math.inf:
            return 0.0
        return math.exp(_logsumexp(self._log_w + candidate) - old)

    def codelength_bits(self) -> float:
        """-log2 g^n, the density-form codelength against the reference measure.

        Nonnegative for counting measures with weights at most 1; may be
        negative for continuous data (differential codelength).  +inf when no
        level covers all observed cells with finite mass.
        """
        return _codelength_bits(self.log_density())

    def level_posterior(self) -> list:
        """Posterior weight of each level given the data; sums to 1."""
        v = self._log_w + self._ld
        total = _logsumexp(v)
        if total == -math.inf:
            raise ValueError("every level has zero density; no posterior exists")
        p = np.exp(v - total)
        return (p / p.sum()).tolist()

    def export_state(self) -> dict:
        """JSON-friendly snapshot: sample count, per-level counts and log densities."""
        levels = [{
            "level": k,
            "alphabet_size": state.alphabet_size if state is not None else 0,
            "counts": {str(s): c for s, c in sorted(state.counts.items())} if state is not None else {},
            "log_density": float(self._ld[k]),
        } for k, state in enumerate(self._states)]
        return {"n": self.n, "log_mixture_density": self.log_density(), "levels": levels}
