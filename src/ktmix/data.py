"""Dataset ingestion and column schemas.

Input is comma-delimited text with a header row and strictly numeric cells;
there is no missing-data handling here, so blank or non-numeric cells are
hard errors that name the offending row and column.

Column kinds map to reference measures as follows: discrete columns get the
unit-weight counting measure on the integers, continuous columns Lebesgue
measure on the line, and mixed columns the sum of Lebesgue measure and a
unit-weight atom set holding the values that repeat often enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import (
    CountingMeasure,
    LebesgueMeasure,
    ReferenceMeasure,
    measure_from_config,
    sum_measure,
)

__all__ = [
    "DatasetError",
    "ColumnSchema",
    "parse_dataset",
    "infer_column_kind",
    "repeated_atoms",
    "build_schema",
    "default_scale",
]

KINDS = ("discrete", "continuous", "mixed")

# Fraction of rows a value must exceed to count as an atom of a mixed column.
ATOM_REPEAT_FRACTION = 0.05


class DatasetError(ValueError):
    """Malformed input data."""


@dataclass
class ColumnSchema:
    """How one column is modeled: kind, reference measure, and histogram parameters."""

    name: str
    kind: str
    measure: ReferenceMeasure
    center: float
    scale: float

    def to_config(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "center": self.center,
            "scale": self.scale,
            "measure": self.measure.to_config(),
        }

    @classmethod
    def from_config(cls, config: dict) -> "ColumnSchema":
        kind = config["kind"]
        if kind not in KINDS:
            raise DatasetError(f"unknown column kind {kind!r}")
        return cls(
            name=str(config["name"]),
            kind=kind,
            measure=measure_from_config(config["measure"]),
            center=float(config["center"]),
            scale=float(config["scale"]),
        )


def parse_dataset(path) -> tuple[list, list]:
    """Read a delimited file into (column names, list of float arrays)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty file")
    names = [name.strip() for name in lines[0].split(",")]
    if any(not name for name in names):
        raise DatasetError(f"{path}: blank column name in header")
    if len(set(names)) != len(names):
        dupe = next(n for i, n in enumerate(names) if n in names[:i])
        raise DatasetError(f"{path}: duplicate column name {dupe!r}")
    if len(lines) == 1:
        raise DatasetError(f"{path}: no data rows")
    columns = [[] for _ in names]
    for row_no, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise DatasetError(
                f"{path}: row {row_no} has {len(cells)} cells, expected {len(names)}"
            )
        for name, column, cell in zip(names, columns, cells):
            text = cell.strip()
            if not text:
                raise DatasetError(f"{path}: missing value at row {row_no}, column {name!r}")
            try:
                value = float(text)
            except ValueError:
                raise DatasetError(
                    f"{path}: non-numeric value {text!r} at row {row_no}, column {name!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetError(
                    f"{path}: non-finite value {text!r} at row {row_no}, column {name!r}"
                )
            column.append(value)
    return names, [np.asarray(col, dtype=float) for col in columns]


def repeated_atoms(values: np.ndarray) -> np.ndarray:
    """Values occurring in more than ATOM_REPEAT_FRACTION of the rows, sorted."""
    uniq, counts = np.unique(values, return_counts=True)
    return uniq[counts > ATOM_REPEAT_FRACTION * values.size]


def infer_column_kind(values) -> str:
    """Classify a column as discrete, continuous, or mixed.

    Discrete: all integers with at most max(20, sqrt(n)) distinct values.
    Mixed: some value repeats in more than 5% of rows while the remaining
    values are non-integer.  Continuous otherwise.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot infer the kind of an empty column")
    all_integer = bool(np.all(values == np.floor(values)))
    distinct = np.unique(values).size
    if all_integer and distinct <= max(20.0, math.sqrt(values.size)):
        return "discrete"
    atoms = repeated_atoms(values)
    if atoms.size:
        rest = values[~np.isin(values, atoms)]
        if np.all(rest != np.floor(rest)):
            return "mixed"
    return "continuous"


def _default_measure(kind: str, values: np.ndarray) -> ReferenceMeasure:
    if kind == "discrete":
        return CountingMeasure.unit_integers()
    if kind == "continuous":
        return LebesgueMeasure()
    return sum_measure(LebesgueMeasure(), CountingMeasure.from_atoms(repeated_atoms(values)))


def default_scale(values) -> float:
    """Histogram scale when none is given: the standard deviation, or 1 for a constant column."""
    s = float(np.std(values))
    return s if s > 0 else 1.0


def build_schema(name: str, values, *, kind: str | None = None,
                 measure: ReferenceMeasure | None = None,
                 center: float | None = None, scale: float | None = None) -> ColumnSchema:
    """Schema for one column, inferring whatever was not overridden."""
    values = np.asarray(values, dtype=float)
    if kind is None:
        kind = infer_column_kind(values)
    elif kind not in KINDS:
        raise DatasetError(f"unknown column kind {kind!r}")
    if measure is None:
        measure = _default_measure(kind, values)
    if center is None:
        center = float(np.mean(values))
    if scale is None:
        scale = default_scale(values)
    return ColumnSchema(name=name, kind=kind, measure=measure, center=center, scale=scale)
