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
simply has mass zero, so cells are never clipped to the support.

Because every level keeps the cuts of the level before it in its odd
slots, the default family is dyadic: with max_level L, level k's cut points
are every 2^(L-k)-th finest cut, finest[2^(L-k) - 1 :: 2^(L-k)], and raw
finest cell i lies in raw cell i >> (L-k) of level k.  So a
HistogramSequence keeps one cut array, the finest, whose strided views are
its coarser levels, and finds a value's cell at every level with one search
of the finest cuts and shifts.  Other partitions search every level.

The optional support is a second gate on samples beside the estimator's
measure.  Nothing in ktmix sets it, as the measure alone says which values are
legal; it stays while the benchmark's workloads pass one (ROADMAP item 1).

Cell convention: half-open (a, b] everywhere, so a point on a cut boundary
belongs to the cell on its left.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .measure import Interval, LebesgueMeasure, ReferenceMeasure

__all__ = [
    "DEFAULT_MAX_LEVEL",
    "CutPointError",
    "HistogramSequence",
    "CustomPartition",
    "Partition",
]

DEFAULT_MAX_LEVEL = 16


class CutPointError(ValueError):
    """Cut points that are not finite and strictly increasing, e.g. collapsed in float64."""


class LevelMap(NamedTuple):
    """One level's raw cells: its cut points and the cell count cuts.size + 1."""

    cuts: np.ndarray
    kept_count: int


class Partition:
    """Cut-point levels plus a support gate for samples.

    Level 0 is the single cell covering the whole line.  support is an
    Interval (standing for Lebesgue measure on it) or a reference measure,
    whose support the samples must lie in; the default admits every finite
    value.  Nothing in ktmix sets it (see the module docstring), and its
    deletion waits for ROADMAP item 1.  Instances are immutable once built,
    apart from the cache that estimator.level_alphabet keeps on them.
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
                raise CutPointError("cut points must be finite")
            if arr.size > 1 and not np.all(arr[1:] > arr[:-1]):
                raise CutPointError(f"cut points at level {k} must be strictly increasing")
            arr.setflags(write=False)
            cuts.append(arr)
        if not cuts or cuts[0].size != 0:
            raise ValueError("level 0 must carry no cut points")
        self._cuts = cuts
        self._support = support
        self.max_level = len(cuts) - 1
        self._alphabets: dict = {}  # k -> (measure, alphabet); see estimator.level_alphabet
        self._refines: bool | None = None
        self._lookup = None         # memoryviews for cells_of, built on its first call

    def __getstate__(self):
        return {**self.__dict__, "_lookup": None}   # memoryviews do not pickle or copy

    def in_support(self, y: float) -> bool:
        return self._support.in_support(y)

    def in_support_many(self, values) -> np.ndarray:
        return self._support.in_support_many(values)

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
        left-sided cut-point search.  In a HistogramSequence of max_level L
        they are bit shifts: raw finest cell i lies in raw cell i >> (L - k)
        of level k.
        """
        uppers = np.append(self._cuts[-1], math.inf)[np.asarray(cells, dtype=np.int64)]
        return [np.searchsorted(cuts, uppers, side="left") for cuts in self._cuts]

    def cells_of(self, y: float) -> list:
        """Raw cell index of the value y at each level 0..max_level, as Python ints.

        One left-sided bisect per level, on memoryviews of the cuts built on
        the first call, so that a lookup makes no numpy call; the (a, b]
        cells of ancestors() and level_alphabet.
        """
        if self._lookup is None:
            self._lookup = [memoryview(cuts) for cuts in self._cuts]
        return [bisect_left(cuts, y) for cuts in self._lookup]


def _is_subset(small: np.ndarray, big: np.ndarray) -> bool:
    """Whether every value of the sorted array small occurs in the sorted array big."""
    idx = np.searchsorted(big, small)
    return bool(idx.size == 0 or (idx[-1] < big.size and np.array_equal(big[idx], small)))


def _universal_cuts(center: float, scale: float, max_level: int) -> np.ndarray:
    """The finest level's cut points, built level by level with only the level before alive."""
    cuts = np.empty(0)
    if max_level >= 1:
        cuts = np.array([center])
    for k in range(1, max_level):
        prev = cuts                 # frees level k - 1 before level k + 1 is allocated
        cuts = np.empty(2 ** (k + 1) - 1)
        cuts[0] = center - k * scale
        cuts[-1] = center + k * scale
        cuts[1:-1:2] = prev
        mids = cuts[2:-2:2]         # 0.5 * (a + b) of neighbouring cuts, written in place
        with np.errstate(over="ignore"):    # Partition rejects an overflowed cut
            np.multiply(0.5, np.add(prev[:-1], prev[1:], out=mids), out=mids)
    return cuts


class HistogramSequence(Partition):
    """The center/scale-driven refining partition family.

    The center and scale are free choices; sensible defaults are the sample
    mean and standard deviation of the column being modeled.  Only the
    finest level owns its cut points; level k's are the read-only view
    finest[2^(L-k) - 1 :: 2^(L-k)] of them (see the module docstring).
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
        finest = _universal_cuts(center, scale, max_level)
        finest.setflags(write=False)
        super().__init__(_dyadic_levels(finest, max_level), support)
        self._refines = True  # each level copies the previous level's cuts
        self.center = center
        self.scale = scale

    def __getstate__(self):
        state = super().__getstate__()
        state["_cuts"] = self._cuts[-1]   # a copy keeps the coarser levels as views
        return state

    def __setstate__(self, state):
        finest = state["_cuts"]
        finest.setflags(write=False)
        self.__dict__.update(state, _cuts=_dyadic_levels(finest, state["max_level"]))

    def ancestors(self, cells) -> list:
        """Raw cell index at each level k of raw finest-level cells: cells >> (L - k)."""
        cells = np.asarray(cells, dtype=np.int64)
        return [cells >> (self.max_level - k) for k in range(self.max_level + 1)]

    def cells_of(self, y: float) -> list:
        """Raw cell index of y at each level: one bisect on the finest cuts, then shifts."""
        if self._lookup is None:
            self._lookup = memoryview(self._cuts[-1]), range(self.max_level, -1, -1)
        finest, shifts = self._lookup
        i = bisect_left(finest, y)
        return [i >> s for s in shifts]


def _dyadic_levels(finest: np.ndarray, max_level: int) -> list:
    """Every level's cut points, as views of the finest: level k takes every 2^(L-k)-th cut."""
    return [finest[2 ** (max_level - k) - 1::2 ** (max_level - k)] for k in range(max_level + 1)]


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
