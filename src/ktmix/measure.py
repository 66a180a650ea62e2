"""Sigma-finite reference measures on the real line.

Every density handled by this package is a Radon-Nikodym derivative with
respect to one of the measures defined here: Lebesgue measure restricted to
an interval, a weighted counting measure on an atom set, a positive
rescaling, or a finite sum of parts.  A measure gates samples (in_support)
and prices cells through masses_half_open alone: every half-open cell (a, b]
of a partition level at once, in closed form -- the rule-generated counting
families included -- so codelength arithmetic never needs a summation cutoff.

Sigma-finiteness holds by construction for every variant (the support
decomposes into unit-length cells of finite mass), so it is not checked at
runtime.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "OutOfSupportError",
    "ReferenceMeasure",
    "LebesgueMeasure",
    "CountingMeasure",
    "SumMeasure",
    "ScaledMeasure",
    "sum_measure",
    "scaled",
    "interval_to_config",
    "interval_from_config",
    "measure_from_config",
]

INF = math.inf

RULE_UNIT = "unit"
RULE_HARMONIC = "harmonic-telescoping"


class OutOfSupportError(ValueError):
    """A value fell outside the support of the configured measure or partition.

    Usually signals a mismatch between the data and the column schema.
    A batch method sets index to the position of the first offending sample.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Interval:
    """A real interval with individually open or closed endpoints.

    Degenerate single-point intervals are allowed and must be closed on both
    ends; an infinite endpoint is never closed.  The default flags give the
    half-open form (lower, upper] used by the partition cells.
    """

    lower: float
    upper: float
    lower_closed: bool = False
    upper_closed: bool = True

    def __post_init__(self):
        lo, up = self.lower, self.upper
        if math.isnan(lo) or math.isnan(up):
            raise ValueError("interval endpoints must not be NaN")
        if lo > up:
            raise ValueError(f"lower endpoint {lo} exceeds upper endpoint {up}")
        if lo == up and not (self.lower_closed and self.upper_closed):
            raise ValueError("a single-point interval must be closed on both ends")
        if math.isinf(lo) and self.lower_closed:
            raise ValueError("an infinite endpoint cannot be closed")
        if math.isinf(up) and self.upper_closed:
            raise ValueError("an infinite endpoint cannot be closed")

    @classmethod
    def real_line(cls) -> "Interval":
        return cls(-INF, INF, False, False)

    def contains(self, x: float) -> bool:
        if not self.lower <= x <= self.upper:  # also rejects NaN
            return False
        return (x != self.lower or self.lower_closed) and (x != self.upper or self.upper_closed)

    def contains_many(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        lo_ok = values >= self.lower if self.lower_closed else values > self.lower
        up_ok = values <= self.upper if self.upper_closed else values < self.upper
        return lo_ok & up_ok


class ReferenceMeasure:
    """Common interface of the measure variants.

    Instances are immutable after construction and safe to share across
    concurrent readers.
    """

    def masses_half_open(self, lows, highs) -> np.ndarray:
        """Mass within the support of each half-open cell (lows[i], highs[i]]; may be +inf.

        An infinite end gives an unbounded cell.  The one pricing path: it
        takes every cell of a partition level at once (estimator.level_alphabet).
        """
        raise NotImplementedError

    def in_support(self, y: float) -> bool:
        """Whether y is a point of the support; NaN and +-inf never are."""
        raise NotImplementedError

    def in_support_many(self, values) -> np.ndarray:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class LebesgueMeasure(ReferenceMeasure):
    """Lebesgue measure restricted to a support interval (the whole line by default)."""

    support: Interval = Interval.real_line()

    def masses_half_open(self, lows, highs) -> np.ndarray:
        lo = np.maximum(np.asarray(lows, dtype=float), self.support.lower)
        mass = np.array(highs, dtype=float)     # clipped, less lo and floored in place
        np.minimum(mass, self.support.upper, out=mass)
        mass -= lo
        return np.maximum(mass, 0.0, out=mass)

    def in_support(self, y: float) -> bool:
        return self.support.contains(y)

    def in_support_many(self, values) -> np.ndarray:
        return self.support.contains_many(values)

    def to_config(self) -> dict:
        return {"variant": "lebesgue", "support": interval_to_config(self.support)}


@dataclass(frozen=True)
class CountingMeasure(ReferenceMeasure):
    """Weighted counting measure on a finite atom list or an integer lattice rule.

    Rule-generated variants evaluate tail masses in closed form: "unit" puts
    weight 1 on every integer of the domain, "harmonic-telescoping" puts
    weight 1/(h(h+1)) on each natural h, so any interval mass telescopes to
    1/a - 1/(b+1), evaluated as (b + 1 - a) / (b + 1) / a so that it does not
    cancel for large naturals.
    """

    atoms: tuple = ()
    weights: tuple = ()
    rule: str | None = None
    domain: str | None = None

    def __post_init__(self):
        if self.rule is not None:
            if self.rule not in (RULE_UNIT, RULE_HARMONIC):
                raise ValueError(f"unknown counting rule {self.rule!r}")
            if self.domain not in ("integers", "naturals"):
                raise ValueError("rule-generated counting needs domain 'integers' or 'naturals'")
            if self.rule == RULE_HARMONIC and self.domain != "naturals":
                raise ValueError("the harmonic-telescoping rule is defined on the naturals")
            if self.atoms or self.weights:
                raise ValueError("rule-generated counting takes no explicit atoms")
            return
        if self.domain is not None:
            raise ValueError("domain is only meaningful for rule-generated counting")
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must align")
        prev = -INF
        for a, w in zip(self.atoms, self.weights):
            if not math.isfinite(a):
                raise ValueError("atoms must be finite")
            if a <= prev:
                raise ValueError("atoms must be strictly increasing")
            if not (w > 0 and math.isfinite(w)):
                raise ValueError("weights must be strictly positive and finite")
            prev = a

    @classmethod
    def from_atoms(cls, atoms, weights=None) -> "CountingMeasure":
        atoms = [float(a) for a in atoms]
        weights = [1.0] * len(atoms) if weights is None else [float(w) for w in weights]
        if len(atoms) != len(weights):
            raise ValueError("atoms and weights must align")
        pairs = sorted(zip(atoms, weights))
        if any(a == b for (a, _), (b, _) in zip(pairs, pairs[1:])):
            raise ValueError("duplicate atom")
        return cls(tuple(a for a, _ in pairs), tuple(w for _, w in pairs))

    @classmethod
    def unit_integers(cls) -> "CountingMeasure":
        return cls(rule=RULE_UNIT, domain="integers")

    @classmethod
    def unit_naturals(cls) -> "CountingMeasure":
        return cls(rule=RULE_UNIT, domain="naturals")

    @classmethod
    def harmonic_naturals(cls) -> "CountingMeasure":
        return cls(rule=RULE_HARMONIC, domain="naturals")

    def masses_half_open(self, lows, highs) -> np.ndarray:
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if self.rule is not None:
            a = np.floor(lows) + 1    # smallest integer strictly above the open end
            b = np.floor(highs)       # largest integer at or below the closed end
            if self.domain == "naturals":
                a = np.maximum(a, 1.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                if self.rule == RULE_HARMONIC:
                    mass = np.where(np.isinf(b), 1.0 / a, (b + 1.0 - a) / (b + 1.0) / a)
                    return np.where(a > b, 0.0, mass)
                count = np.where(np.isinf(b) | np.isinf(a), INF, b - a + 1.0)
                return np.where(a > b, 0.0, count)
        atoms = np.asarray(self.atoms, dtype=float)
        # Flat index arrays, so that scalar ends take the path of one-cell arrays.
        hi_idx = np.searchsorted(atoms, highs, side="right").ravel()
        lo_idx = np.searchsorted(atoms, lows, side="right").ravel()
        # Sum each cell's own weights: a difference of cumulative sums would
        # cancel away most digits of a light atom's mass next to heavy ones.
        # Only the cells that hold an atom are summed, so pricing a fine level
        # makes no temporaries twice its size.
        cells = np.flatnonzero(hi_idx > lo_idx)
        bounds = np.stack((lo_idx[cells], hi_idx[cells]), axis=-1).ravel()
        del hi_idx, lo_idx
        mass = np.zeros(lows.size)
        mass[cells] = np.add.reduceat(np.append(self.weights, 0.0), bounds)[::2]
        return mass.reshape(lows.shape)

    def in_support(self, y: float) -> bool:
        if self.rule is not None:
            if not float(y).is_integer():
                return False
            return self.domain == "integers" or y >= 1
        i = bisect_left(self.atoms, y)
        return i < len(self.atoms) and self.atoms[i] == y

    def in_support_many(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if self.rule is not None:
            mask = np.isfinite(values) & (values == np.floor(values))
            if self.domain == "naturals":
                mask &= values >= 1
            return mask
        if not self.atoms:
            return np.zeros(values.shape, dtype=bool)
        return np.isin(values, np.asarray(self.atoms))

    def to_config(self) -> dict:
        if self.rule is not None:
            return {"variant": "counting", "rule": self.rule, "domain": self.domain}
        return {
            "variant": "counting",
            "atoms": list(self.atoms),
            "weights": list(self.weights),
        }


@dataclass(frozen=True)
class SumMeasure(ReferenceMeasure):
    """Sum of finitely many measures, e.g. Lebesgue plus atoms for mixed data."""

    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a sum measure needs at least one part")
        for p in self.parts:
            if not isinstance(p, ReferenceMeasure):
                raise TypeError("sum parts must be reference measures")

    def masses_half_open(self, lows, highs) -> np.ndarray:
        total = self.parts[0].masses_half_open(lows, highs)
        for p in self.parts[1:]:
            total = total + p.masses_half_open(lows, highs)
        return total

    def in_support(self, y: float) -> bool:
        return any(p.in_support(y) for p in self.parts)

    def in_support_many(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        mask = np.zeros(values.shape, dtype=bool)
        for p in self.parts:
            mask |= p.in_support_many(values)
        return mask

    def to_config(self) -> dict:
        return {"variant": "sum", "parts": [p.to_config() for p in self.parts]}


@dataclass(frozen=True)
class ScaledMeasure(ReferenceMeasure):
    """A measure multiplied by a positive constant factor."""

    base: ReferenceMeasure
    factor: float

    def __post_init__(self):
        if not (self.factor > 0 and math.isfinite(self.factor)):
            raise ValueError("scale factor must be strictly positive and finite")

    def masses_half_open(self, lows, highs) -> np.ndarray:
        return self.factor * self.base.masses_half_open(lows, highs)

    def in_support(self, y: float) -> bool:
        return self.base.in_support(y)

    def in_support_many(self, values) -> np.ndarray:
        return self.base.in_support_many(values)

    def to_config(self) -> dict:
        return {"variant": "scaled", "factor": self.factor, "base": self.base.to_config()}


def sum_measure(a: ReferenceMeasure, b: ReferenceMeasure) -> SumMeasure:
    """Measure whose mass is the sum of the two arguments' masses on every cell."""
    parts = []
    for m in (a, b):
        parts.extend(m.parts if isinstance(m, SumMeasure) else (m,))
    return SumMeasure(tuple(parts))


def scaled(measure: ReferenceMeasure, factor: float) -> ScaledMeasure:
    if isinstance(measure, ScaledMeasure):
        return ScaledMeasure(measure.base, measure.factor * factor)
    return ScaledMeasure(measure, float(factor))


def interval_to_config(iv: Interval) -> dict:
    return {
        "lower": None if math.isinf(iv.lower) else iv.lower,
        "upper": None if math.isinf(iv.upper) else iv.upper,
        "lower_closed": iv.lower_closed,
        "upper_closed": iv.upper_closed,
    }


def interval_from_config(config: dict) -> Interval:
    lower = -INF if config.get("lower") is None else float(config["lower"])
    upper = INF if config.get("upper") is None else float(config["upper"])
    lower_closed = bool(config.get("lower_closed", False))
    upper_closed = bool(config.get("upper_closed", not math.isinf(upper)))
    return Interval(lower, upper, lower_closed, upper_closed)


def measure_from_config(config: dict) -> ReferenceMeasure:
    variant = config.get("variant")
    if variant == "lebesgue":
        support = config.get("support")
        return LebesgueMeasure(Interval.real_line() if support is None else interval_from_config(support))
    if variant == "counting":
        if "rule" in config:
            return CountingMeasure(rule=config["rule"], domain=config.get("domain", "integers"))
        return CountingMeasure.from_atoms(config.get("atoms", ()), config.get("weights"))
    if variant == "sum":
        parts = tuple(measure_from_config(p) for p in config["parts"])
        return SumMeasure(parts)
    if variant == "scaled":
        return ScaledMeasure(measure_from_config(config["base"]), float(config["factor"]))
    raise ValueError(f"unknown measure variant {variant!r}")
