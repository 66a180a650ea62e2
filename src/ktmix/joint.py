"""Two-variable density estimation, independence decisions, and forests.

The joint estimator runs one KT state per grid point (j, k) over the product
cell alphabet of level j for x and level k for y, divides by the product of
the reference masses, and mixes with positive grid weights summing to at most
one.  Comparing the joint codelength with the two marginal codelengths gives
the Bayes factor

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import default_scale
from .estimator import (LevelWeights, MixtureEstimator, _check_refinement, _dot, _logsumexp,
                        _merge_runs, level_alphabet)
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


def _product_weights(levels_x: int, levels_y: int) -> np.ndarray:
    wx = np.asarray(LevelWeights.default(levels_x).values)
    wy = np.asarray(LevelWeights.default(levels_y).values)
    return np.outer(wx, wy)


class JointEstimator:
    """Level-grid mixture estimator for a pair of variables.

    weights may be a 2D array of shape (levels_x+1, levels_y+1) or a mapping
    {(j, k): weight} covering the full grid; the default is the product of
    the univariate level weights.
    """

    def __init__(self, partition_x: Partition, partition_y: Partition,
                 measure_x: ReferenceMeasure, measure_y: ReferenceMeasure,
                 weights=None):
        jmax, kmax = partition_x.max_level, partition_y.max_level
        shape = (jmax + 1, kmax + 1)
        if weights is None:
            grid = _product_weights(jmax, kmax)
        elif isinstance(weights, dict):
            grid = np.full(shape, np.nan)
            for (j, k), w in weights.items():
                if not (0 <= j <= jmax and 0 <= k <= kmax):
                    raise ValueError(f"weight key {(j, k)} outside the level grid")
                grid[j, k] = w
            if np.isnan(grid).any():
                raise ValueError("grid weights must cover every (j, k) pair")
        else:
            grid = np.asarray(weights, dtype=float)
            if grid.shape != shape:
                raise ValueError(f"weight grid shape {grid.shape} does not match {shape}")
        if not np.all(grid > 0) or not np.all(np.isfinite(grid)):
            raise ValueError("grid weights must be strictly positive and finite")
        if grid.sum() > 1 + 1e-12:
            raise ValueError("grid weights must sum to at most 1")

        _check_refinement(partition_x)
        _check_refinement(partition_y)
        self.partition_x, self.partition_y = partition_x, partition_y
        self.measure_x, self.measure_y = measure_x, measure_y
        self.n = 0
        self._log_w = np.log(grid)
        self._gld = np.zeros(shape)
        self._axis_x = [level_alphabet(partition_x, measure_x, j) for j in range(jmax + 1)]
        self._axis_y = [level_alphabet(partition_y, measure_y, k) for k in range(kmax + 1)]
        self._cuts_x = [partition_x.level_map(j).cuts for j in range(jmax + 1)]
        self._cuts_y = [partition_y.level_map(k).cuts for k in range(kmax + 1)]
        self._mx = [log_eta.size for _, log_eta in self._axis_x]
        self._my = [log_eta.size for _, log_eta in self._axis_y]
        self._states: dict[tuple, KtState] = {}
        for j in range(jmax + 1):
            for k in range(kmax + 1):
                if self._mx[j] and self._my[k]:
                    self._states[(j, k)] = KtState(self._mx[j] * self._my[k])
                else:
                    self._gld[j, k] = -math.inf

    def _log_mixture(self) -> float:
        return _logsumexp((self._log_w + self._gld).ravel())

    def _check_support(self, x: float, y: float):
        if not (self.partition_x.in_support(x) and self.measure_x.in_support(x)):
            raise OutOfSupportError(f"x value {x!r} lies outside the support")
        if not (self.partition_y.in_support(y) and self.measure_y.in_support(y)):
            raise OutOfSupportError(f"y value {y!r} lies outside the support")

    def observe(self, x: float, y: float) -> float:
        """Fold one pair in; returns the log predictive mixture density."""
        x, y = float(x), float(y)
        self._check_support(x, y)
        old = self._log_mixture()
        ax = [int(r2a[int(np.searchsorted(c, x, side="left"))])
              for (r2a, _), c in zip(self._axis_x, self._cuts_x)]
        ay = [int(r2a[int(np.searchsorted(c, y, side="left"))])
              for (r2a, _), c in zip(self._axis_y, self._cuts_y)]
        for (j, k), state in self._states.items():
            a, b = ax[j], ay[k]
            if a < 0 or b < 0:
                self._gld[j, k] = -math.inf
                continue
            inc = state.observe(a * self._my[k] + b)
            self._gld[j, k] += inc - self._axis_x[j][1][a] - self._axis_y[k][1][b]
        self.n += 1
        new = self._log_mixture()
        return new - old if new > -math.inf else -math.inf

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
        ok = (self.partition_x.in_support_many(xs) & self.measure_x.in_support_many(xs)
              & self.partition_y.in_support_many(ys) & self.measure_y.in_support_many(ys))
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise OutOfSupportError(
                f"pair ({float(xs[i])!r}, {float(ys[i])!r}) lies outside the support", index=i)
        old = self._log_mixture()
        ny = self._cuts_y[-1].size + 1
        codes = (np.searchsorted(self._cuts_x[-1], xs, side="left") * ny
                 + np.searchsorted(self._cuts_y[-1], ys, side="left"))
        pairs, counts = np.unique(codes, return_counts=True)
        cells_x, cells_y = np.divmod(pairs, ny)
        ax = [r2a[raws] for (r2a, _), raws in zip(self._axis_x, self.partition_x.ancestors(cells_x))]
        ay = [r2a[raws] for (r2a, _), raws in zip(self._axis_y, self.partition_y.ancestors(cells_y))]
        for j, a_all in enumerate(ax):
            # Sorted by (level-j x cell, finest y cell), the valid symbols
            # a * m_y + b of every level k come out non-decreasing.
            order = np.lexsort((cells_y, a_all))
            a, c = a_all[order], counts[order]
            for k, b_all in enumerate(ay):
                state = self._states.get((j, k))
                if state is None:
                    continue
                b = b_all[order]
                valid = (a >= 0) & (b >= 0)
                symbols, cell_counts = _merge_runs(a[valid] * self._my[k] + b[valid], c[valid])
                inc = state.observe_counts(symbols, cell_counts)
                if valid.all():
                    eta = _dot(c, self._axis_x[j][1][a] + self._axis_y[k][1][b])
                    self._gld[j, k] += inc - eta
                else:
                    self._gld[j, k] = -math.inf
        self.n += xs.size
        new = self._log_mixture()
        return new - old if new > -math.inf else -math.inf

    def log_density(self) -> float:
        return self._log_mixture()

    def grid_state(self, j: int, k: int) -> KtState | None:
        """KT state of one grid point; None when that grid point has no alphabet."""
        return self._states.get((j, k))

    def grid_log_densities(self) -> np.ndarray:
        return self._gld.copy()


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
        return {
            "log_gx": self.log_gx,
            "log_gy": self.log_gy,
            "log_gxy": self.log_gxy,
            "log_bayes_factor": self.log_bayes_factor,
            "mi_per_sample": self.mi_per_sample,
            "decision": self.decision,
            "prior_p": self.prior_p,
        }


@dataclass(frozen=True, eq=False)
class FittedColumn:
    """One column fitted once, holding only what its pair analyses read.

    log_density is the marginal mixture's log g over values at the marginal
    depth; partition is the column's histogram sequence cut at the joint
    depth, whose level maps and cell alphabets are built by the first pair
    the column is in and reused by the rest.  The deep marginal estimator and
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
        marginal = MixtureEstimator(
            HistogramSequence(center, scale, support=measure, max_level=levels), measure
        )
        marginal.observe_many(values)
        return cls(
            values=values,
            measure=measure,
            partition=HistogramSequence(center, scale, support=measure, max_level=joint_levels),
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
        raise ValueError("the joint estimator collapsed to zero density on this data")
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
