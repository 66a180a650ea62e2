"""Universal mixture density estimation against a reference measure.

One KT state per partition level models the sequence of level-k cell labels;
the level-k density estimate is that KT probability divided by the reference
masses of the visited cells, and the reported density is the weighted mixture
over levels

    g^n(y^n) = sum_k w_k * Q_k(cells) / prod_i eta(cell_i).

Densities are Radon-Nikodym derivatives with respect to the configured
measure.  A cell of infinite reference mass contributes density zero at its
level (never an error): a finite probability spread over infinite mass has
derivative zero, and the finite-mass levels keep the mixture alive.  For the
same reason cells of zero reference mass are dropped from the level alphabets
up front.

Codelengths for continuous data are differential and may be negative;
counting-measure codelengths with unit weights are literal code lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kt import KtState
from .measure import OutOfSupportError, ReferenceMeasure
from .partition import Partition

__all__ = ["LevelWeights", "MixtureEstimator", "level_alphabet"]

LOG2 = math.log(2.0)


@dataclass(frozen=True)
class LevelWeights:
    """Positive level weights with total at most 1.

    The default w_k = 1/((k+1)(k+2)) keeps deep levels alive with a heavy
    tail; its truncated sum 1 - 1/(K+2) stays below 1, which preserves the
    sub-probability property of the mixture.
    """

    values: tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError("at least one level weight is required")
        for w in self.values:
            if not (w > 0 and math.isfinite(w)):
                raise ValueError("level weights must be strictly positive and finite")
        if sum(self.values) > 1 + 1e-12:
            raise ValueError("level weights must sum to at most 1")

    def __len__(self):
        return len(self.values)

    @classmethod
    def default(cls, max_level: int) -> "LevelWeights":
        return cls(tuple(1.0 / ((k + 1) * (k + 2)) for k in range(max_level + 1)))


def level_alphabet(partition: Partition, measure: ReferenceMeasure, k: int):
    """Index maps for the level-k alphabet: cells with positive reference mass.

    Returns (raw_to_alpha, log_eta) where raw_to_alpha sends the raw cell
    index from a cut-point search to the alphabet index (-1 if the cell was
    dropped) and log_eta holds the log reference mass per alphabet cell
    (+inf allowed).  The result is read-only and cached on the partition for
    the last measure it was asked with, so the partitions a fitted column
    keeps price their cells once for all the pairs it is in.
    """
    cached = partition._alphabets.get(k)
    if cached is not None and cached[0] is measure:
        return cached[1]
    alphabet = _price_level(partition.level_map(k), measure)
    for table in alphabet:
        table.setflags(write=False)
    partition._alphabets[k] = (measure, alphabet)
    return alphabet


def _price_level(lm, measure: ReferenceMeasure):
    if not lm.kept_count:
        return np.full(lm.cuts.size + 1, -1, dtype=np.int64), np.empty(0)
    eta = np.empty(lm.kept_count)
    if lm.interior_pos.size:
        eta[lm.interior_pos] = measure.masses_half_open(lm.interior_lo, lm.interior_hi)
    for pos, cell in lm.edge_items:
        eta[pos] = measure.measure_of(cell)
    keep = eta > 0
    alpha_of_kept = np.where(keep, np.cumsum(keep) - 1, -1)
    raw_to_alpha = np.where(
        lm.raw_to_kept >= 0, alpha_of_kept[np.maximum(lm.raw_to_kept, 0)], -1
    ).astype(np.int64)
    log_eta = np.log(eta[keep])
    return raw_to_alpha, log_eta


def _check_refinement(partition: Partition):
    """Raise ValueError unless the partition refines; batch fits depend on it."""
    if not partition.verify_refinement():
        raise ValueError("partition is not a refinement sequence: "
                         "some level drops a cut point of the level before")


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


def _logsumexp(values: np.ndarray) -> float:
    hi = float(np.max(values))
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(float(np.sum(np.exp(values - hi))))


class MixtureEstimator:
    """Sequential level-mixture estimator for one variable.

    Parameters
    ----------
    partition : Partition
        Refining cell family; its support determines which samples are legal.
    measure : ReferenceMeasure
        Reference measure the density is taken against.
    weights : LevelWeights, optional
        One weight per level 0..max_level; defaults to LevelWeights.default.

    Single-writer during observation; the read-only queries (density_at,
    codelength_bits, level_posterior) may run concurrently between
    observations, and distinct estimators are fully independent.
    """

    def __init__(self, partition: Partition, measure: ReferenceMeasure, weights: LevelWeights | None = None):
        if weights is None:
            weights = LevelWeights.default(partition.max_level)
        if len(weights) != partition.max_level + 1:
            raise ValueError(
                f"{len(weights)} weights for {partition.max_level + 1} levels"
            )
        _check_refinement(partition)
        self.partition = partition
        self.measure = measure
        self.weights = weights
        self.n = 0
        self._log_w = np.log(np.asarray(weights.values, dtype=float))
        self._cuts = [partition.level_map(k).cuts for k in range(partition.max_level + 1)]
        self._raw_to_alpha = []
        self._log_eta = []
        self._states: list[KtState | None] = []
        self._lld = np.zeros(partition.max_level + 1)
        for k in range(partition.max_level + 1):
            raw_to_alpha, log_eta = level_alphabet(partition, measure, k)
            self._raw_to_alpha.append(raw_to_alpha)
            self._log_eta.append(log_eta)
            if log_eta.size:
                self._states.append(KtState(log_eta.size))
            else:
                self._states.append(None)
                self._lld[k] = -math.inf

    # -- internals ----------------------------------------------------------

    def _log_mixture(self) -> float:
        return _logsumexp(self._log_w + self._lld)

    def _check_support(self, y: float):
        if not (self.partition.in_support(y) and self.measure.in_support(y)):
            raise OutOfSupportError(f"value {y!r} lies outside the support")

    def _alpha_index(self, k: int, y: float) -> int:
        raw = int(np.searchsorted(self._cuts[k], y, side="left"))
        return int(self._raw_to_alpha[k][raw])

    # -- observation --------------------------------------------------------

    def observe(self, y: float) -> float:
        """Fold one sample in; returns the log predictive mixture density at y."""
        y = float(y)
        self._check_support(y)
        old = self._log_mixture()
        for k in range(len(self._states)):
            a = self._alpha_index(k, y)
            if a < 0:
                self._lld[k] = -math.inf
                continue
            inc = self._states[k].observe(a)
            self._lld[k] += inc - self._log_eta[k][a]
        self.n += 1
        new = self._log_mixture()
        return new - old if new > -math.inf else -math.inf

    def observe_many(self, ys) -> float:
        """Fold a batch in; returns the total log-density increment.

        Equivalent to sequential observe() calls up to float rounding.  The
        samples are binned once at the finest level; every coarser level's
        counts are sums of those, because the partition refines, and each
        level is scored from its count table in closed form.
        """
        ys = np.asarray(ys, dtype=float)
        if ys.ndim != 1:
            raise ValueError("sample batch must be one-dimensional")
        if ys.size == 0:
            return 0.0
        ok = self.partition.in_support_many(ys) & self.measure.in_support_many(ys)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise OutOfSupportError(f"value {float(ys[i])!r} lies outside the support", index=i)
        old = self._log_mixture()
        finest = self._cuts[-1]
        table = np.bincount(np.searchsorted(finest, ys, side="left"), minlength=finest.size + 1)
        cells = np.flatnonzero(table)
        counts = table[cells]
        for k, raws in enumerate(self.partition.ancestors(cells)):
            alphas = self._raw_to_alpha[k][raws]
            valid = alphas >= 0
            symbols, level_counts = _merge_runs(alphas[valid], counts[valid])
            state = self._states[k]
            inc = state.observe_counts(symbols, level_counts) if state is not None else 0.0
            if valid.all() and state is not None:
                self._lld[k] += inc - _dot(level_counts, self._log_eta[k][symbols])
            else:
                self._lld[k] = -math.inf
        self.n += ys.size
        new = self._log_mixture()
        return new - old if new > -math.inf else -math.inf

    # -- queries ------------------------------------------------------------

    def log_density(self) -> float:
        """Accumulated log g^n; equals log(sum of level weights) at n = 0."""
        return self._log_mixture()

    def density_at(self, y: float) -> float:
        """One-step predictive mixture density at y, without mutating state."""
        y = float(y)
        self._check_support(y)
        candidate = np.empty(len(self._states))
        for k, state in enumerate(self._states):
            a = self._alpha_index(k, y)
            if state is None or a < 0:
                candidate[k] = -math.inf
            else:
                candidate[k] = self._lld[k] + state.log_predictive(a) - self._log_eta[k][a]
        old = self._log_mixture()
        if old == -math.inf:
            return 0.0
        return math.exp(_logsumexp(self._log_w + candidate) - old)

    def codelength_bits(self) -> float:
        """-log2 g^n, the density-form codelength against the reference measure.

        Nonnegative for counting measures with weights at most 1; may be
        negative for continuous data (differential codelength).  +inf when no
        level covers all observed cells with finite mass.
        """
        lm = self._log_mixture()
        return math.inf if lm == -math.inf else -lm / LOG2

    def level_posterior(self) -> list:
        """Posterior weight of each level given the data; sums to 1."""
        v = self._log_w + self._lld
        total = _logsumexp(v)
        if total == -math.inf:
            raise ValueError("every level has zero density; no posterior exists")
        p = np.exp(v - total)
        return (p / p.sum()).tolist()

    def level_log_densities(self) -> np.ndarray:
        return self._lld.copy()

    def export_state(self) -> dict:
        """JSON-friendly snapshot: sample count, per-level counts and log densities."""
        levels = []
        for k, state in enumerate(self._states):
            entry = {
                "level": k,
                "alphabet_size": state.alphabet_size if state is not None else 0,
                "counts": {str(s): c for s, c in sorted(state.counts.items())} if state is not None else {},
                "log_density": float(self._lld[k]),
            }
            levels.append(entry)
        return {"n": self.n, "log_mixture_density": self._log_mixture(), "levels": levels}
