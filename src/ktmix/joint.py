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
same fit gives the column's codelength -log2 g_x (FittedColumn.codelength_bits),
and bins the column's values once on the joint-depth partition, so that a
pair's fit starts from the two columns' finest cells.  The fit sorts the
distinct cell pairs once per x level and merges the count tables of all the
y levels of that row from the sorted pairs (JointEstimator._observe_cells).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .data import default_scale
from .estimator import MixtureEstimator, _Axis, _codelength_bits, _LevelMixture
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
    """Level-grid mixture estimator for a pair of variables, fitted in batches only.

    Level pair (j, k) has the weight w_j w_k, w_k = 1/((k+1)(k+2)) on each axis.
    """

    def __init__(self, partition_x: Partition, partition_y: Partition,
                 measure_x: ReferenceMeasure, measure_y: ReferenceMeasure):
        super().__init__((_Axis(partition_x, measure_x), _Axis(partition_y, measure_y)))
        self.partition_x, self.partition_y = partition_x, partition_y

    def observe_many(self, xs, ys) -> float:
        """Fold a batch of pairs in; returns the total log-density increment.

        A KT probability depends only on the final counts, so batches folded
        in one by one (of one pair each, say) equal their union up to rounding.
        The pairs are binned on the grid of the two finest levels and folded in
        by _observe_cells.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("paired batches must be equal-length one-dimensional arrays")
        axis_x, axis_y = self._axes
        ok = axis_x.mask(xs) & axis_y.mask(ys)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise OutOfSupportError(
                f"pair ({float(xs[i])!r}, {float(ys[i])!r}) lies outside the support", index=i)
        return self._observe_cells(axis_x.finest(xs), axis_y.finest(ys))

    def _observe_cells(self, cells_x: np.ndarray, cells_y: np.ndarray) -> float:
        """observe_many on pairs given by their raw finest cells, in the support.

        The distinct pairs are counted once, ordered by (finest y cell, finest
        x cell), and each finest cell's raw ancestor is found at every level.
        Each x level j then sorts the pairs once, stably by their level-j x
        cell, which orders them by (level-j x cell, finest y cell); the keys
        are cast to the smallest unsigned type that holds them, which numpy
        sorts by radix up to 16 bits.  Pairs sharing their level-j x cell and
        level-k y cell are adjacent in that order, so the count table of state
        (j, k) merges the runs of the table at level k + 1, from the finest y
        level down, each run read at one of its pairs.
        The valid runs' symbols a * m_k + b come out increasing, and each state
        is scored from its table in closed form.  The reference masses of all
        the states in row j are summed at once, over the sorted pairs, one
        C-ordered row per y level; a level pair with a sample in a cell of
        zero mass is dead, though its state still counts the rest.
        """
        if cells_x.size == 0:
            return 0.0
        axis_x, axis_y = self._axes
        nx = axis_x.finest_cuts.size + 1
        pairs, counts = np.unique(cells_y * nx + cells_x, return_counts=True)
        fine_y, fine_x = np.divmod(pairs, nx)
        raw_y = self.partition_y.ancestors(fine_y)
        alpha_y = [r2a[raw] for r2a, raw in zip(axis_y.raw_to_alpha, raw_y)]
        live_y = [bool((b >= 0).all()) for b in alpha_y]
        eta_y = np.zeros((len(raw_y), pairs.size))   # read by live states only
        for k in np.flatnonzero(live_y):
            eta_y[k] = axis_y.log_eta[k][alpha_y[k]]
        key_type = np.min_scalar_type(nx - 1)
        cells_per_level_y = [self.partition_y.level_map(k).kept_count for k in range(len(raw_y))]
        for j, raw_x in enumerate(self.partition_x.ancestors(fine_x)):
            if not axis_x.sizes[j]:
                continue   # no alphabet, so no state in this row
            order = np.argsort(raw_x.astype(key_type), kind="stable")
            reps, run_x, run_counts = order, raw_x[order], counts[order]
            r2a_x = axis_x.raw_to_alpha[j]
            alpha_x = r2a_x[run_x]
            live_x = bool((alpha_x >= 0).all())
            if live_x:
                # np.take keeps the rows C-ordered, so each row sums in the order of a 1-D
                # sum; eta_y[:, order] is F-ordered and would round differently.
                terms = np.take(eta_y, order, axis=1)
                terms += axis_x.log_eta[j][alpha_x]
                terms *= run_counts
                eta_sums = np.add.reduce(terms, axis=1)
            for k in range(len(raw_y) - 1, -1, -1):
                key = run_x * cells_per_level_y[k] + raw_y[k][reps]   # (level-j x, level-k y) cell
                starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
                reps, run_x = reps[starts], run_x[starts]
                run_counts = np.add.reduceat(run_counts, starts)
                state = self._states[j, k]
                if state is None:
                    continue
                a, b = r2a_x[run_x], alpha_y[k][reps]
                symbols = a * axis_y.sizes[k] + b
                if live_x and live_y[k]:
                    self._ld[j, k] += state._fold(symbols, run_counts) - eta_sums[k]
                else:
                    valid = (a >= 0) & (b >= 0)
                    state._fold(symbols[valid], run_counts[valid])
                    self._ld[j, k] = -math.inf
        return self._advance(cells_x.size)

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
    column's histogram sequence cut again at the joint depth, and cells holds
    each value's raw cell at that partition's finest level (both None when
    fitted without joint_levels): every pair reads the cells binned once here,
    and the first pair prices the partition's cell alphabets for the rest.  The
    marginal estimator and its deep partition are dropped after the fit, so a
    forest over d columns keeps d shallow partitions, not d deep ones.
    """

    values: np.ndarray
    measure: ReferenceMeasure
    partition: HistogramSequence | None
    cells: np.ndarray | None
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
        shallow = cells = None
        if joint_levels is not None:
            shallow = HistogramSequence(partition.center, partition.scale, max_level=joint_levels)
            cells = np.searchsorted(shallow.level_map(joint_levels).cuts, values, side="left")
        return cls(values, measure, shallow, cells, marginal.log_density())

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
    if fx.cells.size != fy.cells.size:
        raise ValueError("paired columns must be equal-length")
    joint = JointEstimator(fx.partition, fy.partition, fx.measure, fy.measure)
    joint._observe_cells(fx.cells, fy.cells)   # the marginal fits gated the values
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
