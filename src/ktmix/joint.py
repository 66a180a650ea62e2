"""Two-variable density estimation, independence decisions, and forests.

JointEstimator is the two-axis grid of the level-mixture core in estimator.py:
one KT state per level pair (j, k) over the product cells of level j for x and
level k for y, divided by the product of the reference masses and mixed with
weights w_j w_k (the level prior of each axis).  Comparing the joint codelength
with the two marginal codelengths gives the Bayes factor

    log BF = log p + log g_x + log g_y - log(1 - p) - log g_xy

for prior independence probability p; the pair is declared independent
exactly when the factor is nonnegative.  Pairwise factors feed a maximum
weight spanning forest, which admits only edges with positive dependence
evidence.

g_x and g_y do not depend on the pair, so each column is fitted once
(FittedColumn) and every pair that contains it costs one joint fit only
(score_pair): d marginal fits and d(d-1)/2 joint fits for a forest.  The
same fit gives the column's codelength -log2 g_x (FittedColumn.codelength_bits).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import default_scale
from .estimator import MixtureEstimator, _Axis, _codelength_bits, _dot, _LevelMixture, _merge_runs
from .kt import KtState
from .measure import LebesgueMeasure, OutOfSupportError, ReferenceMeasure
from .partition import DEFAULT_MAX_LEVEL, HistogramSequence, Partition

__all__ = [
    "DEFAULT_JOINT_LEVEL",
    "JointEstimator",
    "PairReport",
    "FittedColumn",
    "ForestEdge",
    "score_pair",
    "analyze_pair",
    "build_forest",
]

DEFAULT_JOINT_LEVEL = 8


class JointEstimator(_LevelMixture):
    """Level-grid mixture estimator for a pair of variables.

    Level pair (j, k) has the weight w_j w_k, w_k = 1/((k+1)(k+2)) on each axis.
    """

    def __init__(self, partition_x: Partition, partition_y: Partition,
                 measure_x: ReferenceMeasure, measure_y: ReferenceMeasure):
        super().__init__((_Axis(partition_x, measure_x), _Axis(partition_y, measure_y)))
        self.partition_x, self.partition_y = partition_x, partition_y
        self.measure_x, self.measure_y = measure_x, measure_y

    def observe(self, x: float, y: float) -> float:
        """Fold one pair in; returns the log predictive mixture density."""
        x, y = float(x), float(y)
        axis_x, axis_y = self._axes
        axis_x.check(x, "x value")
        axis_y.check(y, "y value")
        old = self.log_density()
        ax, ay = axis_x.alphas(x), axis_y.alphas(y)
        for (j, k), state in np.ndenumerate(self._states):
            if state is None:
                continue
            a, b = ax[j], ay[k]
            if a < 0 or b < 0:
                self._ld[j, k] = -math.inf
                continue
            inc = state.observe(a * axis_y.sizes[k] + b)
            self._ld[j, k] += inc - axis_x.log_eta[j][a] - axis_y.log_eta[k][b]
        return self._advance(1, old)

    def observe_many(self, xs, ys) -> float:
        """Fold a batch of pairs in; equivalent to observe() loops up to rounding.

        The pairs are binned once on the grid of the two finest levels, and
        each finest cell's ancestors are found at every level.  Each x level j
        then takes one pass over all y levels: sorted by (level-j x cell,
        finest y cell), the valid symbols a * m_k + b of every y level k come
        out non-decreasing, so with each level's symbols shifted into a key
        range of its own, one run merge gives the count tables of all the
        states in row j.  Each state is
        scored from its table in closed form; a level pair with a sample in
        a cell of zero mass is dead, though its state still counts the rest.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("paired batches must be equal-length one-dimensional arrays")
        if xs.size == 0:
            return 0.0
        axis_x, axis_y = self._axes
        ok = axis_x.mask(xs) & axis_y.mask(ys)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise OutOfSupportError(
                f"pair ({float(xs[i])!r}, {float(ys[i])!r}) lies outside the support", index=i)
        old = self.log_density()
        ny = axis_y.cuts[-1].size + 1
        pairs, counts = np.unique(axis_x.finest(xs) * ny + axis_y.finest(ys), return_counts=True)
        cells_x, cells_y = np.divmod(pairs, ny)
        ax = np.array(axis_x.ancestor_alphas(cells_x))
        ay = np.array(axis_y.ancestor_alphas(cells_y))
        sizes_y = np.array(axis_y.sizes, dtype=np.int64)[:, None]
        for j, a_all in enumerate(ax):
            if not axis_x.sizes[j]:
                continue   # no alphabet, so no state in this row
            order = np.argsort((a_all + 1) * ny + cells_y, kind="stable")
            a, c, b = a_all[order], counts[order], ay[:, order]
            valid = (a >= 0) & (b >= 0)
            live = valid.all(axis=1)
            # Level k's symbols a * m_k + b take the key range bounds[k]..bounds[k + 1].
            bounds = np.concatenate(([0], np.cumsum(axis_x.sizes[j] * sizes_y)))
            keys, key_counts = _merge_runs((a * sizes_y + b + bounds[:-1, None])[valid],
                                           np.broadcast_to(c, b.shape)[valid])
            lo_hi = np.searchsorted(keys, bounds)
            eta_x = axis_x.log_eta[j][a]   # read by live states only, where every a >= 0
            for k, state in enumerate(self._states[j]):
                if state is None:
                    continue
                lo, hi = lo_hi[k], lo_hi[k + 1]
                inc = state._fold(keys[lo:hi] - bounds[k], key_counts[lo:hi])
                if live[k]:
                    self._ld[j, k] += inc - _dot(c, eta_x + axis_y.log_eta[k][b[k]])
                else:
                    self._ld[j, k] = -math.inf
        return self._advance(xs.size, old)

    def grid_state(self, j: int, k: int) -> KtState | None:
        """KT state of one grid point; None when that grid point has no alphabet."""
        return self._states[j, k]


@dataclass(frozen=True)
class PairReport:
    """Outcome of one pairwise independence analysis.  Logs are in nats."""

    log_gx: float
    log_gy: float
    log_gxy: float
    log_bayes_factor: float
    mi_per_sample: float
    decision: str
    prior_p: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class FittedColumn:
    """One column fitted once, holding only what its reports and pair analyses read.

    log_density is the marginal mixture's log g over values.  partition is the
    column's histogram sequence cut again at the joint depth (None when fitted
    without joint_levels), whose cell alphabets the first pair prices and the
    rest reuse.  The marginal estimator and its deep partition are dropped after
    the fit, so a forest over d columns keeps d shallow partitions, not d deep ones.
    """

    values: np.ndarray
    measure: ReferenceMeasure
    partition: HistogramSequence | None
    log_density: float

    @classmethod
    def fit(cls, values, partition: Partition, measure: ReferenceMeasure,
            joint_levels: int | None = None) -> "FittedColumn":
        """Fit the level mixture over partition to values, priced against measure.

        With joint_levels, partition must be a HistogramSequence: its center
        and scale cut the joint-depth partition of the column's pairs.
        """
        values = np.asarray(values, dtype=float)
        marginal = MixtureEstimator(partition, measure)
        marginal.observe_many(values)
        shallow = None if joint_levels is None else HistogramSequence(
            partition.center, partition.scale, max_level=joint_levels)
        return cls(values, measure, shallow, marginal.log_density())

    def codelength_bits(self) -> float:
        """-log2 g^n of the column, as MixtureEstimator.codelength_bits."""
        return _codelength_bits(self.log_density)


def score_pair(fx: FittedColumn, fy: FittedColumn, prior_p: float = 0.5) -> PairReport:
    """Bayes-factor report of two fitted columns: one joint fit over their pair grid.

    mi_per_sample is (log_gxy - log_gx - log_gy) / n, a codelength estimate
    of the mutual information that may come out negative for independent data.
    """
    if not 0 < prior_p < 1:
        raise ValueError("prior_p must lie strictly between 0 and 1")
    if fx.partition is None or fy.partition is None:
        raise ValueError("a column fitted without joint_levels cannot be paired")
    log_gx, log_gy = fx.log_density, fy.log_density
    for label, value in (("x", log_gx), ("y", log_gy)):
        if value == -math.inf:
            raise ValueError(f"the {label} estimator collapsed to zero density on this data")
    joint = JointEstimator(fx.partition, fy.partition, fx.measure, fy.measure)
    joint.observe_many(fx.values, fy.values)
    log_gxy = joint.log_density()
    if log_gxy == -math.inf:
        raise ValueError("the joint estimator collapsed to zero density on this data: its bounded "
                         "cells end at center ± (joint_levels - 1)·scale, and one value beyond them "
                         "can leave no grid level alive; a larger joint_levels (--joint-levels) helps")
    log_bf = math.log(prior_p) + log_gx + log_gy - math.log(1 - prior_p) - log_gxy
    return PairReport(
        log_gx=log_gx,
        log_gy=log_gy,
        log_gxy=log_gxy,
        log_bayes_factor=log_bf,
        mi_per_sample=(log_gxy - log_gx - log_gy) / fx.values.size,
        decision="independent" if log_bf >= 0 else "dependent",
        prior_p=prior_p,
    )


def analyze_pair(xs, ys, *,
                 measure_x: ReferenceMeasure | None = None,
                 measure_y: ReferenceMeasure | None = None,
                 center_x: float | None = None, scale_x: float | None = None,
                 center_y: float | None = None, scale_y: float | None = None,
                 levels: int = DEFAULT_MAX_LEVEL,
                 joint_levels: int = DEFAULT_JOINT_LEVEL,
                 prior_p: float = 0.5) -> PairReport:
    """Fit both columns (FittedColumn.fit), then score the pair (score_pair).  Center, scale
    and measure default to the sample mean, default_scale and Lebesgue measure."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("paired samples must be equal-length one-dimensional arrays")
    if xs.size < 1:
        raise ValueError("at least one sample pair is required")

    def fit(values, measure, center, scale):   # the deep partition dies with this frame
        partition = HistogramSequence(np.mean(values) if center is None else center,
                                      default_scale(values) if scale is None else scale, max_level=levels)
        return FittedColumn.fit(values, partition, measure or LebesgueMeasure(), joint_levels)

    return score_pair(fit(xs, measure_x, center_x, scale_x), fit(ys, measure_y, center_y, scale_y),
                      prior_p)


class ForestEdge(NamedTuple):
    u: str
    v: str
    weight: float


def build_forest(pair_table: dict) -> list:
    """Maximum-weight spanning forest over dependence evidence.

    pair_table maps unordered column-name pairs to PairReports.  Edge weight
    is -log_bayes_factor; only edges with positive weight (pairs decided
    dependent) are admissible.  Kruskal with deterministic tie-break: weight
    descending, then the sorted name pair ascending.
    """
    candidates = []
    for pair, report in pair_table.items():
        u, v = sorted(str(c) for c in pair)
        weight = -report.log_bayes_factor
        if weight > 0:
            candidates.append(ForestEdge(u, v, weight))
    candidates.sort(key=lambda e: (-e.weight, e.u, e.v))

    parent: dict[str, str] = {}

    def find(node: str) -> str:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    selected = []
    for edge in candidates:
        ru, rv = find(edge.u), find(edge.v)
        if ru != rv:
            parent[ru] = rv
            selected.append(edge)
    return selected
