"""Refining interval partitions of the real line.

The default family is driven by a center and a positive scale.  Level k cuts
the line at 2^k - 1 points: each new level keeps every existing cut, inserts
the midpoint of every bounded cell, and pushes one extra cut into each
unbounded tail (center -/+ k*scale).  Cells therefore shrink around every
point while the covered range grows, which is what makes the level mixture
universal without any tuning of the cut placement.

A partition may be restricted to a support set, given either as an interval
or as a reference measure (whose support is used).  Restriction intersects
every cell with the support and drops the cells that miss it entirely.

Cell convention: half-open (a, b] everywhere, so a point on a cut boundary
belongs to the cell on its left; the leftmost cell of a bounded support keeps
the support's own closed end.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .measure import Interval, OutOfSupportError, ReferenceMeasure

__all__ = [
    "DEFAULT_MAX_LEVEL",
    "HistogramSequence",
    "CustomPartition",
    "Partition",
    "LevelCells",
]

DEFAULT_MAX_LEVEL = 16


class LevelCells(NamedTuple):
    """Bulk view of one partition level."""

    cuts: np.ndarray          # strictly increasing cut points
    cells: list               # support-restricted cells, left to right
    raw_to_kept: np.ndarray   # raw cell index -> kept index, -1 if dropped


class LevelMap(NamedTuple):
    """Index map of one level, without materialized cell objects.

    Only the (at most two) cells straddling the support hull need clipping;
    every other kept cell is the plain half-open (interior_lo, interior_hi].
    Keeping those as parallel arrays lets level alphabets of 2^k cells be
    priced with one vectorized mass evaluation.
    """

    cuts: np.ndarray
    raw_to_kept: np.ndarray
    kept_count: int
    interior_pos: np.ndarray  # kept indices holding pure half-open cells
    interior_lo: np.ndarray
    interior_hi: np.ndarray
    edge_items: tuple         # ((kept index, clipped Interval), ...)


class _IntervalSupport:
    __slots__ = ("hull",)

    def __init__(self, interval: Interval):
        self.hull = interval

    def contains(self, y: float) -> bool:
        return self.hull.contains(y)

    def contains_many(self, values) -> np.ndarray:
        return self.hull.contains_many(values)

    def occupied(self, cell: Interval) -> bool:
        return True

    def occupied_interior(self, lows, highs) -> np.ndarray:
        return np.ones(len(lows), dtype=bool)


class _MeasureSupport:
    __slots__ = ("measure", "hull")

    def __init__(self, measure: ReferenceMeasure):
        hull = measure.support_hull()
        if hull is None:
            raise ValueError("the support measure has empty support")
        self.measure = measure
        self.hull = hull

    def contains(self, y: float) -> bool:
        return self.measure.in_support(y)

    def contains_many(self, values) -> np.ndarray:
        return self.measure.in_support_many(values)

    def occupied(self, cell: Interval) -> bool:
        return self.measure.measure_of(cell) > 0

    def occupied_interior(self, lows, highs) -> np.ndarray:
        return self.measure.masses_half_open(lows, highs) > 0


def _as_support(support):
    if isinstance(support, Interval):
        return _IntervalSupport(support)
    if isinstance(support, ReferenceMeasure):
        return _MeasureSupport(support)
    raise TypeError("support must be an Interval or a ReferenceMeasure")


class Partition:
    """Cut-point levels plus a support restriction.

    Level 0 is the single cell covering the whole support.  Instances are
    immutable once built; per-level cell tables are materialized lazily but
    idempotently, so concurrent readers observe identical results.
    """

    def __init__(self, cut_levels, support=None):
        support = Interval.real_line() if support is None else support
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
        self._support = _as_support(support)
        self.max_level = len(cuts) - 1
        self._levels: dict[int, LevelCells] = {}
        self._maps: dict[int, LevelMap] = {}
        self._refines: bool | None = None

    # -- support ------------------------------------------------------------

    @property
    def support_hull(self) -> Interval:
        return self._support.hull

    def in_support(self, y: float) -> bool:
        return self._support.contains(y)

    def in_support_many(self, values) -> np.ndarray:
        return self._support.contains_many(values)

    # -- levels -------------------------------------------------------------

    def cut_points(self, k: int) -> np.ndarray:
        if not 1 <= k <= self.max_level:
            raise ValueError(f"level {k} out of range 1..{self.max_level}")
        return self._cuts[k]

    def level_map(self, k: int) -> LevelMap:
        if not 0 <= k <= self.max_level:
            raise ValueError(f"level {k} out of range 0..{self.max_level}")
        cached = self._maps.get(k)
        if cached is None:
            cached = self._build_level_map(k)
            self._maps[k] = cached
        return cached

    def _build_level_map(self, k: int) -> LevelMap:
        cuts = self._cuts[k]
        hull = self._support.hull
        # Raw cells between the ones containing the hull ends lie entirely
        # inside the hull, so only the two extreme candidates need clipping.
        i0 = int(np.searchsorted(cuts, hull.lower, side="left"))
        i1 = int(np.searchsorted(cuts, hull.upper, side="left"))
        interior_raw = np.arange(i0 + 1, i1, dtype=np.int64)
        interior_lo = cuts[i0:i1 - 1] if interior_raw.size else np.empty(0)
        interior_hi = cuts[i0 + 1:i1] if interior_raw.size else np.empty(0)
        if interior_raw.size:
            occupied = self._support.occupied_interior(interior_lo, interior_hi)
            interior_raw = interior_raw[occupied]
            interior_lo = interior_lo[occupied]
            interior_hi = interior_hi[occupied]

        def clipped_edge(i: int) -> Interval | None:
            lower = -math.inf if i == 0 else float(cuts[i - 1])
            upper = math.inf if i == cuts.size else float(cuts[i])
            raw = Interval(lower, upper, False, not math.isinf(upper))
            clip = raw.intersect(hull)
            if clip is None or not self._support.occupied(clip):
                return None
            return clip

        kept_raw: list = []
        edge_items: list = []
        lead = clipped_edge(i0)
        if lead is not None:
            edge_items.append((0, lead))
            kept_raw.append(i0)
        interior_start = len(kept_raw)
        kept_raw.extend(interior_raw.tolist())
        if i1 != i0:
            trail = clipped_edge(i1)
            if trail is not None:
                edge_items.append((len(kept_raw), trail))
                kept_raw.append(i1)
        interior_pos = np.arange(interior_start, interior_start + interior_raw.size, dtype=np.int64)
        raw_to_kept = np.full(cuts.size + 1, -1, dtype=np.int64)
        kept_raw_arr = np.asarray(kept_raw, dtype=np.int64)
        raw_to_kept[kept_raw_arr] = np.arange(kept_raw_arr.size)
        return LevelMap(
            cuts=cuts,
            raw_to_kept=raw_to_kept,
            kept_count=int(kept_raw_arr.size),
            interior_pos=interior_pos,
            interior_lo=interior_lo,
            interior_hi=interior_hi,
            edge_items=tuple(edge_items),
        )

    def level(self, k: int) -> LevelCells:
        cached = self._levels.get(k)
        if cached is None:
            cached = self._build_level(k)
            self._levels[k] = cached
        return cached

    def _build_level(self, k: int) -> LevelCells:
        lm = self.level_map(k)
        cells: list = [None] * lm.kept_count
        for pos, cell in lm.edge_items:
            cells[pos] = cell
        for pos, lo, hi in zip(lm.interior_pos.tolist(), lm.interior_lo.tolist(), lm.interior_hi.tolist()):
            cells[pos] = Interval.half_open(lo, hi)
        return LevelCells(lm.cuts, cells, lm.raw_to_kept)

    def cells(self, k: int) -> list:
        """Support-restricted cells of level k, left to right, empties dropped."""
        return self.level(k).cells

    def cell_of(self, k: int, y: float) -> int:
        """Index into cells(k) of the cell containing y (right-closed convention)."""
        lvl = self.level(k)
        y = float(y)
        if not self._support.contains(y):
            raise OutOfSupportError(f"value {y!r} lies outside the support")
        raw = int(np.searchsorted(lvl.cuts, y, side="left"))
        kept = int(lvl.raw_to_kept[raw])
        if kept < 0:
            raise OutOfSupportError(
                f"value {y!r} falls in a dropped cell at level {k}"
            )
        return kept

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
        cut-point search, before support restriction.
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
