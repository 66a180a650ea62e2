"""Two-variable density estimation, independence decisions, and forests.

JointEstimator is the two-axis grid of the level-mixture core in estimator.py:
one KT state per level pair (j, k) over the product cells of level j for x and
level k for y, divided by the product of the reference masses and mixed with
positive grid weights summing to at most one.  Comparing the joint codelength
with the two marginal codelengths gives the Bayes factor

    log BF = log p + log g_x + log g_y - log(1 - p) - log g_xy

for prior independence probability p; the pair is declared independent
exactly when the factor is nonnegative.  Pairwise factors feed a maximum
weight spanning forest, which admits only edges with positive dependence
evidence.

g_x and g_y do not depend on the pair, so each column is fitted once
(FittedColumn) and every pair that contains it costs one joint fit only
(score_pair): d marginal fits and d(d-1)/2 joint fits for a forest.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import default_scale
from .estimator import LevelWeights, MixtureEstimator, _Axis, _dot, _LevelMixture, _merge_runs
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

    weights is a 2D array of shape (levels_x+1, levels_y+1); the default is
    the product of the univariate level weights.
    """

    def __init__(self, partition_x: Partition, partition_y: Partition,
                 measure_x: ReferenceMeasure, measure_y: ReferenceMeasure,
                 weights=None):
        if weights is None:
            weights = np.outer(LevelWeights.default(partition_x.max_level).values,
                               LevelWeights.default(partition_y.max_level).values)
        super().__init__((_Axis(partition_x, measure_x), _Axis(partition_y, measure_y)), weights)
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

        The pairs are binned once on the grid of the two finest levels; each
        (j, k) grid state is scored in closed form from that count table,
        summed up to levels j and k.
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
        ay = axis_y.ancestor_alphas(cells_y)
        for j, a_all in enumerate(axis_x.ancestor_alphas(cells_x)):
            # Sorted by (level-j x cell, finest y cell), the valid symbols
            # a * m_y + b of every level k come out non-decreasing.
            order = np.lexsort((cells_y, a_all))
            a, c = a_all[order], counts[order]
            for k, b_all in enumerate(ay):
                state = self._states[j, k]
                if state is None:
                    continue
                b = b_all[order]
                valid = (a >= 0) & (b >= 0)
                symbols, cell_counts = _merge_runs(a[valid] * axis_y.sizes[k] + b[valid], c[valid])
                inc = state.observe_counts(symbols, cell_counts)
                if valid.all():
                    eta = _dot(c, axis_x.log_eta[j][a] + axis_y.log_eta[k][b])
                    self._ld[j, k] += inc - eta
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
    """One column fitted once, holding only what its pair analyses read.

    log_density is the marginal mixture's log g over values at the marginal
    depth; partition is the column's histogram sequence cut at the joint
    depth, whose cell alphabets (the reference mass of every cell) are priced
    by the first pair the column is in and reused by the rest.  The deep marginal estimator and
    its partition are dropped after the fit, so a forest over d columns keeps
    d shallow partitions, not d deep ones.
    """

    values: np.ndarray
    measure: ReferenceMeasure
    partition: HistogramSequence
    log_density: float

    @classmethod
    def fit(cls, values, *, measure: ReferenceMeasure | None = None,
            center: float | None = None, scale: float | None = None,
            levels: int = DEFAULT_MAX_LEVEL,
            joint_levels: int = DEFAULT_JOINT_LEVEL) -> "FittedColumn":
        """Fit the level mixture of depth levels to values.

        The measure defaults to Lebesgue on the line, the center and scale to
        the sample mean and standard deviation.
        """
        values = np.asarray(values, dtype=float)
        measure = LebesgueMeasure() if measure is None else measure
        center = float(np.mean(values)) if center is None else float(center)
        scale = default_scale(values) if scale is None else float(scale)
        marginal = MixtureEstimator(HistogramSequence(center, scale, max_level=levels), measure)
        marginal.observe_many(values)
        return cls(
            values=values,
            measure=measure,
            partition=HistogramSequence(center, scale, max_level=joint_levels),
            log_density=marginal.log_density(),
        )


def score_pair(fx: FittedColumn, fy: FittedColumn, prior_p: float = 0.5) -> PairReport:
    """Bayes-factor report of two fitted columns: one joint fit over their pair grid.

    mi_per_sample is (log_gxy - log_gx - log_gy) / n, a codelength estimate
    of the mutual information that may come out negative for independent data.
    """
    if not 0 < prior_p < 1:
        raise ValueError("prior_p must lie strictly between 0 and 1")
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
    """Fit both columns (FittedColumn.fit), then score the pair (score_pair)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("paired samples must be equal-length one-dimensional arrays")
    if xs.size < 1:
        raise ValueError("at least one sample pair is required")
    depths = {"levels": levels, "joint_levels": joint_levels}
    fx = FittedColumn.fit(xs, measure=measure_x, center=center_x, scale=scale_x, **depths)
    fy = FittedColumn.fit(ys, measure=measure_y, center=center_y, scale=scale_y, **depths)
    return score_pair(fx, fy, prior_p)


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
