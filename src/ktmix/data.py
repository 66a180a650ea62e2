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

import io
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


# Every line break str.splitlines knows besides "\n", UTF-8 encoded.  A file
# holding one leaves the vectorized reader, which splits at "\n" only.
_OTHER_LINE_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                      "\x85".encode(), "\u2028".encode(), "\u2029".encode())

# The vectorized reader holds one block of whole lines of this many bytes,
# and its parsed table, besides the output columns.
_BLOCK_BYTES = 1 << 18


def parse_dataset(path) -> tuple[list, list]:
    """Read a delimited file into (column names, list of float arrays).

    A well-formed file is read by np.loadtxt, a block of lines at a time,
    straight into the output columns.  Anything it might read differently
    from the cell-by-cell reader, or cannot read, goes to that reader, which
    produces the same arrays and the row-and-column error.
    """
    fast = _parse_table(path)
    return fast if fast is not None else _parse_cells(path)


def _line_blocks(path):
    """The file's bytes in blocks of whole lines; only the last may lack its "\n"."""
    with open(path, "rb") as fh:
        rest = b""
        for chunk in iter(lambda: fh.read(_BLOCK_BYTES), b""):
            chunk = rest + chunk
            cut = chunk.rfind(b"\n") + 1
            if cut:
                yield chunk[:cut]
            rest = chunk[cut:]
        if rest:
            yield rest


def _scan_table(path):
    """(column names, data line count) of a file _parse_table may read, else None."""
    header = None
    newlines = 0
    block = b""
    for block in _line_blocks(path):
        if (header is not None and block.startswith(b"\n")) or b"\n\n" in block \
                or any(brk in block for brk in _OTHER_LINE_BREAKS):
            return None
        if header is None:
            header = block.split(b"\n", 1)[0]
        newlines += block.count(b"\n")
    data_lines = newlines - block.endswith(b"\n")
    if data_lines < 1:
        return None
    try:
        names = [name.strip() for name in header.decode("utf-8").split(",")]
    except UnicodeDecodeError:
        return None
    if not all(names) or len(set(names)) != len(names):
        return None
    return names, data_lines


def _parse_table(path):
    """(names, columns) via np.loadtxt, or None to defer to _parse_cells."""
    scanned = _scan_table(path)
    if scanned is None:
        return None
    names, data_lines = scanned
    columns = [np.empty(data_lines) for _ in names]
    row = -1  # the header line comes first
    for block in _line_blocks(path):
        if row < 0:
            block = block[block.index(b"\n") + 1:]
            row = 0
            if not block:
                continue
        lines = block.count(b"\n") + (not block.endswith(b"\n"))
        try:
            table = np.loadtxt(io.StringIO(block.decode("utf-8")), delimiter=",",
                               comments=None, ndmin=2)
        except ValueError:
            return None
        if (table.shape != (lines, len(names)) or row + lines > data_lines
                or not np.isfinite(table).all()):
            return None
        for column, values in zip(columns, table.T):
            column[row:row + lines] = values
        row += lines
    return (names, columns) if row == data_lines else None


def _parse_cells(path) -> tuple[list, list]:
    """parse_dataset one cell at a time; its errors name the offending row and column."""
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


def _kind_and_atoms(values: np.ndarray) -> tuple[str, np.ndarray]:
    """(inferred kind, repeated atoms) of a non-empty column, from one sort.

    The integer tests run on the distinct values, and the values that are
    not atoms are the distinct values that do not repeat.
    """
    if values.size == 0:
        raise ValueError("cannot infer the kind of an empty column")
    uniq, counts = np.unique(values, return_counts=True)
    integer = uniq == np.floor(uniq)
    repeated = counts > ATOM_REPEAT_FRACTION * values.size
    atoms = uniq[repeated]
    if integer.all() and uniq.size <= max(20.0, math.sqrt(values.size)):
        return "discrete", atoms
    if atoms.size and not integer[~repeated].any():
        return "mixed", atoms
    return "continuous", atoms


def infer_column_kind(values) -> str:
    """Classify a column as discrete, continuous, or mixed.

    Discrete: all integers with at most max(20, sqrt(n)) distinct values.
    Mixed: some value repeats in more than 5% of rows while the remaining
    values are non-integer.  Continuous otherwise.
    """
    return _kind_and_atoms(np.asarray(values, dtype=float))[0]


def _default_measure(kind: str, atoms: np.ndarray) -> ReferenceMeasure:
    if kind == "discrete":
        return CountingMeasure.unit_integers()
    if kind == "continuous":
        return LebesgueMeasure()
    return sum_measure(LebesgueMeasure(), CountingMeasure.from_atoms(atoms))


def default_scale(values) -> float:
    """Histogram scale when none is given: the standard deviation, or 1 for a constant column."""
    s = float(np.std(values))
    return s if s > 0 else 1.0


def build_schema(name: str, values, *, kind: str | None = None,
                 measure: ReferenceMeasure | None = None,
                 center: float | None = None, scale: float | None = None) -> ColumnSchema:
    """Schema for one column, inferring whatever was not overridden."""
    values = np.asarray(values, dtype=float)
    if kind is not None and kind not in KINDS:
        raise DatasetError(f"unknown column kind {kind!r}")
    if kind is None or measure is None:
        inferred, atoms = _kind_and_atoms(values)
        kind = inferred if kind is None else kind
        if measure is None:
            measure = _default_measure(kind, atoms)
    if center is None:
        center = float(np.mean(values))
    if scale is None:
        scale = default_scale(values)
    return ColumnSchema(name=name, kind=kind, measure=measure, center=center, scale=scale)
