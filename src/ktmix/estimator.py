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
The one-sample path (observe, density_at) makes no numpy call per level: the
partition finds the sample's raw cell at every level (for a
HistogramSequence one bisect of the finest cuts and a shift per level), it
reads zero-copy memoryviews of the level tables, and it reads and writes the
level log densities as Python floats.  The mixture's log density is cached
and refreshed once per observation, so observe runs one log-sum-exp.

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
from operator import getitem

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
    ends = np.concatenate(([-math.inf], cuts, [math.inf]))
    eta = measure.masses_half_open(ends[:-1], ends[1:])
    # Each table is built in place, with the arrays it no longer needs freed,
    # so a fine level's pricing peaks at a few copies of its cells.
    del ends
    keep = eta > 0
    raw_to_alpha = np.cumsum(keep)
    raw_to_alpha -= 1
    raw_to_alpha[~keep] = -1
    log_eta = eta[keep]
    del eta
    alphabet = raw_to_alpha, np.log(log_eta, out=log_eta)
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
    """sum(counts * values) of 1-D arrays without BLAS.

    A BLAS dot product of more than ~10,000 terms wakes the BLAS worker
    threads, which then spin on the other cores after the call returns and
    make the timing of everything that follows depend on the scheduler.
    np.add.reduce is the reduction np.sum runs, called without its Python
    wrapper: the same bits on a 1-D array.
    """
    return float(np.add.reduce(counts * values))


def _codelength_bits(log_density: float) -> float:
    """-log2 of a density given by its natural log; +inf for density zero."""
    return math.inf if log_density == -math.inf else -log_density / LOG2


def _logsumexp(values: np.ndarray) -> float:
    """log(sum(exp(values))) of a 1-D array, through the ufunc reductions np.max and np.sum run."""
    hi = float(np.maximum.reduce(values))
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(float(np.add.reduce(np.exp(values - hi))))


class _Axis:
    """One variable's levels, built once, and its sample gate.

    raw_to_alpha, log_eta and sizes hold per level the raw-cell-to-alphabet
    map, the log reference masses and the alphabet size; finest_cuts holds
    the finest level's cut points.
    """

    def __init__(self, partition: Partition, measure: ReferenceMeasure):
        if not partition.verify_refinement():
            raise ValueError("partition is not a refinement sequence: "
                             "some level drops a cut point of the level before")
        self.partition, self.measure = partition, measure
        levels = range(partition.max_level + 1)
        self.finest_cuts = partition.level_map(partition.max_level).cuts
        self.raw_to_alpha, self.log_eta = zip(*(level_alphabet(partition, measure, k) for k in levels))
        self.sizes = [log_eta.size for log_eta in self.log_eta]
        self._views = None

    def __getstate__(self):
        return {**self.__dict__, "_views": None}   # memoryviews do not pickle or copy

    def check(self, y: float):
        if not (self.partition.in_support(y) and self.measure.in_support(y)):
            raise OutOfSupportError(f"value {y!r} lies outside the support")

    def mask(self, ys: np.ndarray) -> np.ndarray:
        return self.partition.in_support_many(ys) & self.measure.in_support_many(ys)

    def cells(self, y: float) -> list:
        """(alphabet index, log reference masses) of y's cell at every level; index -1 if massless.

        The partition finds y's raw cell at every level (Partition.cells_of:
        one bisect on the finest cuts and a shift per level for a
        HistogramSequence, whose raw finest cell i lies in raw cell
        i >> (L - k) of level k).  The level tables are read through
        memoryviews, built on the first call, so that batch fits never build
        them and a lookup makes no numpy call.
        """
        if self._views is None:
            self._views = tuple(map(memoryview, self.raw_to_alpha)), tuple(map(memoryview, self.log_eta))
        raw_to_alpha, log_eta = self._views
        return list(zip(map(getitem, raw_to_alpha, self.partition.cells_of(y)), log_eta))

    def finest(self, ys: np.ndarray) -> np.ndarray:
        """Raw finest-level cell of each sample: the joint's per-sample binning."""
        return np.searchsorted(self.finest_cuts, ys, side="left")

    def finest_counts(self, ys: np.ndarray) -> np.ndarray:
        """Number of samples in each raw finest-level cell, from one sort of a copy of ys.

        Cell j is (cuts[j-1], cuts[j]], so its count is the number of samples
        at most cuts[j] less the number at most cuts[j-1]: the table
        bincount(finest(ys)) gives, without a search per sample.
        """
        at_most = np.searchsorted(np.sort(ys), self.finest_cuts, side="right")
        return np.diff(at_most, prepend=0, append=ys.size)

    def ancestor_alphas(self, cells) -> list:
        """Alphabet index at every level of raw finest-level cells (Partition.ancestors)."""
        return [r2a[raws] for r2a, raws in zip(self.raw_to_alpha, self.partition.ancestors(cells))]


class _LevelMixture:
    """Grid of KT states over product cells, one level per axis; point (j, k) weighs w_j w_k.

    The weights are each axis's LevelWeights.default.  A grid point with an
    empty alphabet on some axis has no state and log density -inf.  Each
    observation of a subclass ends with _advance, which refreshes the cached
    mixture log density that log_density() returns.
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
        self._log_g = _logsumexp((self._log_w + self._ld).ravel())

    def _advance(self, count: int) -> float:
        """Count samples just folded in; refresh log g^n and return its increment."""
        old = self._log_g
        self.n += count
        self._log_g = new = _logsumexp((self._log_w + self._ld).ravel())
        return new - old if new > -math.inf else -math.inf

    def log_density(self) -> float:
        """Accumulated log g^n; equals log(sum of the weights) at n = 0."""
        return self._log_g

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

    # -- observation --------------------------------------------------------

    def observe(self, y: float) -> float:
        """Fold one sample in; returns the log predictive mixture density at y."""
        y = float(y)
        axis, = self._axes
        axis.check(y)
        ld = memoryview(self._ld)   # per-level reads and writes as Python floats
        for k, (a, log_eta) in enumerate(axis.cells(y)):
            if a < 0:
                ld[k] = -math.inf
                continue
            inc = self._states[k].observe(a)
            ld[k] += inc - log_eta[a]
        return self._advance(1)

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
        return self._advance(ys.size)

    # -- queries ------------------------------------------------------------

    def density_at(self, y: float) -> float:
        """One-step predictive mixture density at y, without mutating state."""
        y = float(y)
        axis, = self._axes
        axis.check(y)
        ld = memoryview(self._ld)
        candidate = [-math.inf if state is None or a < 0
                     else ld[k] + math.log(state.predictive(a)) - log_eta[a]
                     for k, (state, (a, log_eta)) in enumerate(zip(self._states, axis.cells(y)))]
        if self._log_g == -math.inf:
            return 0.0
        return math.exp(_logsumexp(self._log_w + candidate) - self._log_g)

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
