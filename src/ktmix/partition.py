"""Refining interval partitions of the real line.

The default family is driven by a center and a positive scale.  Level k cuts
the line at 2^k - 1 points: each new level keeps every existing cut, inserts
the midpoint of every bounded cell, and pushes one extra cut into each
unbounded tail (center -/+ k*scale).  Cells therefore shrink around every
point while the covered range grows, which is what makes the level mixture
universal without any tuning of the cut placement.

A level's cells are the raw intervals between its cut points, the two
unbounded tails included: cuts.size + 1 cells, indexed by a left-sided
search of the cut points.  A cell enters an estimator only through its
reference mass (estimator.level_alphabet), and a cell outside the support
simply has mass zero, so cells are never clipped to the support.  The
optional support is the gate on samples only (in_support, in_support_many).

Cell convention: half-open (a, b] everywhere, so a point on a cut boundary
belongs to the cell on its left.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .measure import Interval, LebesgueMeasure, ReferenceMeasure

__all__ = [
    "DEFAULT_MAX_LEVEL",
    "HistogramSequence",
    "CustomPartition",
    "Partition",
]

DEFAULT_MAX_LEVEL = 16


class LevelMap(NamedTuple):
    """One level's raw cells: its cut points and the cell count cuts.size + 1."""

    cuts: np.ndarray
    kept_count: int


class Partition:
    """Cut-point levels plus a support gate for samples.

    Level 0 is the single cell covering the whole line.  support is an
    Interval (standing for Lebesgue measure on it) or a reference measure,
    whose support the samples must lie in; the default admits every finite
    value.  Instances are immutable once built, apart from the cache that
    estimator.level_alphabet keeps on them.
    """

    def __init__(self, cut_levels, support=None):
        if support is None:
            support = LebesgueMeasure()
        elif isinstance(support, Interval):
            support = LebesgueMeasure(support)
        elif not isinstance(support, ReferenceMeasure):
            raise TypeError("support must be an Interval or a ReferenceMeasure")
        cuts = []
        for k, level in enumerate(cut_levels):
            arr = np.asarray(level, dtype=float)
            if arr.ndim != 1:
                raise ValueError("cut-point lists must be one-dimensional")
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError("cut points must be finite")
            if arr.size > 1 and not np.all(np.diff(arr) > 0):
                raise ValueError(f"cut points at level {k} must be strictly increasing")
            arr.setflags(write=False)
            cuts.append(arr)
        if not cuts or cuts[0].size != 0:
            raise ValueError("level 0 must carry no cut points")
        self._cuts = cuts
        self._support = support
        self.max_level = len(cuts) - 1
        self._alphabets: dict = {}  # k -> (measure, alphabet); see estimator.level_alphabet
        self._refines: bool | None = None

    def in_support(self, y: float) -> bool:
        return self._support.in_support(y)

    def in_support_many(self, values) -> np.ndarray:
        return self._support.in_support_many(values)

    def cut_points(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.max_level:
            raise ValueError(f"level {k} out of range 1..{self.max_level}")
        return self._cuts[k]

    def level_map(self, k: int) -> LevelMap:
        if not 0 <= k <= self.max_level:
            raise ValueError(f"level {k} out of range 0..{self.max_level}")
        cuts = self._cuts[k]
        return LevelMap(cuts, cuts.size + 1)

    def verify_refinement(self) -> bool:
        """True when every level's cut points are among the next level's.

        Then every level-(k+1) cell sits inside exactly one level-k cell, and
        a finest-level cell determines its cell at every level, which is what
        ancestors() relies on.  Checked once per partition.
        """
        if self._refines is None:
            self._refines = all(
                _is_subset(coarse, fine) for coarse, fine in zip(self._cuts, self._cuts[1:])
            )
        return self._refines

    def ancestors(self, cells) -> list:
        """Raw cell index at each level 0..max_level of raw finest-level cells.

        A finest cell lies in the cell of every coarser level that holds its
        upper cut, and the top tail lies in the top tail, provided the
        partition refines (verify_refinement).  Raw indices are those of a
        left-sided cut-point search.
        """
        uppers = np.append(self._cuts[-1], math.inf)[np.asarray(cells, dtype=np.int64)]
        return [np.searchsorted(cuts, uppers, side="left") for cuts in self._cuts]


def _is_subset(small: np.ndarray, big: np.ndarray) -> bool:
    """Whether every value of the sorted array small occurs in the sorted array big."""
    idx = np.searchsorted(big, small)
    return bool(idx.size == 0 or (idx[-1] < big.size and np.array_equal(big[idx], small)))


def _universal_cuts(center: float, scale: float, max_level: int) -> list:
    levels = [np.empty(0)]
    if max_level >= 1:
        levels.append(np.array([center]))
    for k in range(1, max_level):
        prev = levels[-1]
        nxt = np.empty(2 ** (k + 1) - 1)
        nxt[0] = center - k * scale
        nxt[-1] = center + k * scale
        nxt[1:-1:2] = prev
        nxt[2:-2:2] = 0.5 * (prev[:-1] + prev[1:])
        levels.append(nxt)
    return levels


class HistogramSequence(Partition):
    """The center/scale-driven refining partition family.

    The center and scale are free choices; sensible defaults are the sample
    mean and standard deviation of the column being modeled.
    """

    def __init__(self, center: float, scale: float, support=None, max_level: int = DEFAULT_MAX_LEVEL):
        center = float(center)
        scale = float(scale)
        if not math.isfinite(center):
            raise ValueError("center must be finite")
        if not (scale > 0 and math.isfinite(scale)):
            raise ValueError("scale must be strictly positive and finite")
        if max_level < 0:
            raise ValueError("max_level must be nonnegative")
        super().__init__(_universal_cuts(center, scale, max_level), support)
        self._refines = True  # each level copies the previous level's cuts
        self.center = center
        self.scale = scale


class CustomPartition(Partition):
    """A partition supplied as explicit cut-point lists, level 1 upward.

    Any strictly increasing lists construct; the estimators accept only a
    family that passes verify_refinement, e.g. the dyadic splits of [0, 1).
    Level counts need not follow the 2^k - 1 pattern.
    """

    def __init__(self, cut_levels, support=None):
        levels = [np.empty(0)]
        levels.extend(np.asarray(c, dtype=float) for c in cut_levels)
        super().__init__(levels, support)
