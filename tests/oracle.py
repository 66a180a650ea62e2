"""An independent reference for the estimators, for tests only.

measure_of prices one cell straight from a measure's definition, reading only
the measure's public fields: Lebesgue measure is the length clipped to the
support, the counting rules are integer-range arithmetic, explicit atoms are a
bisect over the atoms, a sum is the sum of its parts and a scaled measure the
factor times its base.  It shares no code with masses_half_open, the one
pricing path of the package.

On top of it, level_log_densities and joint_level_log_densities compute the
mixture g^n(y^n) = sum_k w_k * Q_k(cells) / prod_i eta(cell_i) one level at a
time, from cut points, a bisect per sample and kt_log_prob_closed_form: no
alphabet map, count table or KT state of the estimators is involved.
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np

from ktmix.kt import kt_log_prob_closed_form
from ktmix.measure import LebesgueMeasure, ScaledMeasure, SumMeasure


def _integers_within(lo, hi, lo_closed, hi_closed):
    """Smallest and largest integers of the cell, -inf/+inf for an unbounded end; b < a if none."""
    a = -math.inf if math.isinf(lo) else math.ceil(lo) + (math.ceil(lo) == lo and not lo_closed)
    b = math.inf if math.isinf(hi) else math.floor(hi) - (math.floor(hi) == hi and not hi_closed)
    return a, b


def measure_of(measure, lo, hi, lo_closed=False, hi_closed=True):
    """Mass within the support of the cell from lo to hi, each end closed or open; may be +inf.

    The defaults give the partition cell (lo, hi]; an infinite end is open
    whatever its flag says.
    """
    if isinstance(measure, LebesgueMeasure):
        # An end point has no length, so the closed flags never matter.
        support = measure.support
        return max(min(hi, support.upper) - max(lo, support.lower), 0.0)
    if isinstance(measure, SumMeasure):
        return sum(measure_of(p, lo, hi, lo_closed, hi_closed) for p in measure.parts)
    if isinstance(measure, ScaledMeasure):
        return measure.factor * measure_of(measure.base, lo, hi, lo_closed, hi_closed)
    if measure.rule is None:
        atoms = measure.atoms
        first = bisect_left(atoms, lo) if lo_closed else bisect_right(atoms, lo)
        stop = bisect_right(atoms, hi) if hi_closed else bisect_left(atoms, hi)
        return float(sum(measure.weights[first:stop]))
    a, b = _integers_within(lo, hi, lo_closed, hi_closed)
    if measure.domain == "naturals":
        a = max(a, 1)
    if a > b:
        return 0.0
    if measure.rule == "harmonic-telescoping":     # mass 1/(h(h+1)) on each natural h
        return 1.0 / a if math.isinf(b) else (b + 1 - a) / (b + 1) / a
    return math.inf if math.isinf(a) or math.isinf(b) else float(b - a + 1)


def level_cells(partition, measure, k):
    """(cuts, masses) of level k: cell i is (cuts[i-1], cuts[i]], both tails unbounded."""
    cuts = partition.level_map(k).cuts.tolist()
    ends = [-math.inf, *cuts, math.inf]
    return cuts, [measure_of(measure, lo, hi) for lo, hi in zip(ends, ends[1:])]


def coded_samples(partition, measure, k, values):
    """(m_k, [(symbol, (mass,)) per sample]) at level k.

    m_k counts the cells of positive mass, +inf included; a sample's symbol is
    the rank of its cell among them.  A sample in a cell of mass 0 gets a
    meaningless symbol, and its level is dead anyway.
    """
    cuts, masses = level_cells(partition, measure, k)
    below = list(itertools.accumulate((eta > 0 for eta in masses), initial=0))
    cells = [bisect_left(cuts, y) for y in values]
    return below[-1], [(below[i], (masses[i],)) for i in cells]


def score(m, coded):
    """log Q(symbols) - sum of log masses over m symbols; -inf for a dead level.

    A level is dead when it has no cell of positive mass, or a sample lies in
    a cell with a factor of mass 0 or +inf.
    """
    if m == 0 or any(eta == 0 or math.isinf(eta) for _, etas in coded for eta in etas):
        return -math.inf
    counts = Counter(symbol for symbol, _ in coded)
    return kt_log_prob_closed_form(dict(counts), m) - sum(
        math.log(eta) for _, etas in coded for eta in etas)


def level_weights(max_level):
    """The default level weights w_k = 1/((k+1)(k+2))."""
    return np.array([1.0 / ((k + 1) * (k + 2)) for k in range(max_level + 1)])


def level_log_densities(partition, measure, values):
    """Unweighted log density of each level of the marginal mixture."""
    return np.array([score(*coded_samples(partition, measure, k, values))
                     for k in range(partition.max_level + 1)])


def joint_level_log_densities(partition_x, partition_y, measure_x, measure_y, xs, ys):
    """Unweighted log density of each level pair (j, k) of the joint mixture.

    A product cell has mass eta_x * eta_y, so m = m_j * m_k and the pair of
    ranks (a, b) is the symbol a * m_k + b.
    """
    rows = [coded_samples(partition_x, measure_x, j, xs) for j in range(partition_x.max_level + 1)]
    cols = [coded_samples(partition_y, measure_y, k, ys) for k in range(partition_y.max_level + 1)]
    return np.array([[score(mj * mk, [(a * mk + b, ex + ey) for (a, ex), (b, ey) in zip(cx, cy)])
                      for mk, cy in cols] for mj, cx in rows])


def log_mixture(weights, level_log_densities):
    """log sum_k w_k g_k by logsumexp; -inf when every level is dead."""
    terms = [math.log(w) + ld for w, ld in zip(np.ravel(weights), np.ravel(level_log_densities))
             if ld > -math.inf]
    if not terms:
        return -math.inf
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))
