"""Command-line surface: codelength, density, indep, forest, simulate.

Every subcommand is a pure function of the input file bytes and the flags
(for simulate, the flags include the seed); reports are strict JSON with
sorted keys, and file output goes through a temp-file rename, so repeated
runs produce byte-identical results.

codelength, indep and forest fit each column they need once, as a
FittedColumn over the column's partition (_fit_columns): its histogram
sequence, or the custom refining partition that --partition gives codelength
and density (not indep and forest).  codelength reads the bits off it; indep
and forest also keep its joint-depth partition, priced once as an Axis, and
score every pair from two of those (score_pair).  density fits a
MixtureEstimator, whose KT states its grid reads.  A column's schema measure
both prices the cells and gates the samples: a value outside its support is
reported with its row and column.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from .data import ColumnSchema, DatasetError, build_schema, parse_dataset
from .estimator import MixtureEstimator
from .joint import DEFAULT_JOINT_LEVEL, FittedColumn, build_forest, score_pair
from .measure import OutOfSupportError
from .partition import DEFAULT_MAX_LEVEL, CustomPartition, CutPointError, HistogramSequence, Partition

__all__ = ["main"]

SIMULATE_KINDS = ("gaussian", "uniform", "bernoulli", "mixed")


def _parse_flags(args):
    """Turn --mu/--sigma/--partition into {column: value} dicts on args and range-check the flags."""
    args.mu = _parse_assignments(args.mu, float, "--mu")
    args.sigma = _parse_assignments(args.sigma, float, "--sigma")
    args.partition = _parse_assignments(getattr(args, "partition", []), str, "--partition")
    if args.levels < 0 or getattr(args, "joint_levels", 0) < 0:
        raise ValueError("level counts must be nonnegative")
    if not 0 < getattr(args, "prior_p", 0.5) < 1:
        raise ValueError("prior-p must lie strictly between 0 and 1")


def _parse_assignments(pairs, cast, flag):
    out = {}
    for item in pairs:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"{flag} expects COL=VALUE, got {item!r}")
        try:
            out[name] = cast(value)
        except ValueError:
            raise ValueError(f"{flag} value {value!r} for column {name!r} is invalid") from None
    return out


def _strict(value):
    """The report with every non-finite float as null, its dict marked "dead".

    A dead level or column has density zero (log density -inf, codelength
    +inf), which RFC 8259 JSON cannot spell.
    """
    if isinstance(value, dict):
        out = {key: _strict(item) for key, item in value.items()}
        if any(isinstance(item, float) and not math.isfinite(item) for item in value.values()):
            out["dead"] = True
        return out
    if isinstance(value, list):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit(report: dict, output: str | None):
    text = json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        _atomic_write(output, text)


def _atomic_write(path: str, text: str):
    """Write path by a rename; the file gets mode 0o666 less the umask, as from a shell redirect."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".ktmix-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# What a JSON document of the wrong shape raises on its way into a schema or partition.
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _reason(exc: Exception) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _resolve_schemas(names, columns, args) -> list:
    overrides = {}
    if args.schema:
        with open(args.schema, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise DatasetError(f"--schema {args.schema}: not valid JSON: {exc}") from None
        entries = loaded.get("columns") if isinstance(loaded, dict) else loaded
        if not isinstance(entries, list):
            raise DatasetError(f"--schema {args.schema}: expected a list of column entries")
        for i, entry in enumerate(entries):
            try:
                schema = ColumnSchema.from_config(entry)
            except _MALFORMED as exc:
                raise DatasetError(f"--schema {args.schema}: column entry {i}: {_reason(exc)}") from None
            overrides[schema.name] = schema
    for flag, mapping in (("--mu", args.mu), ("--sigma", args.sigma),
                          ("--schema", overrides), ("--partition", args.partition)):
        for name in mapping:
            if name not in names:
                raise DatasetError(f"{flag} names unknown column {name!r}")
    schemas = []
    for name, column in zip(names, columns):
        schema = overrides.get(name) or build_schema(name, column)
        if name in args.mu:
            schema.center = args.mu[name]
        if name in args.sigma:
            schema.scale = args.sigma[name]
        if not math.isfinite(schema.center):
            raise DatasetError(f"column {name!r}: histogram center {schema.center!r} is not "
                               f"finite; give one with --mu {name}=VALUE")
        if not (schema.scale > 0 and math.isfinite(schema.scale)):
            raise DatasetError(f"column {name!r}: histogram scale {schema.scale!r} is not "
                               f"positive and finite; give one with --sigma {name}=VALUE")
        schemas.append(schema)
    return schemas


@contextmanager
def _fit_named(path: str, name: str, levels_flags: str):
    """Re-raise a column fit's errors as DatasetErrors naming the column: a value
    outside the support with its row, and histogram cut points that collapse,
    overflow in float64 or exhaust memory with the flags that mend them."""
    try:
        yield
    except OutOfSupportError as exc:
        if exc.index is None:
            raise
        raise DatasetError(f"{path}: {exc} at row {exc.index + 2}, column {name!r}") from None
    except CutPointError as exc:
        raise DatasetError(f"column {name!r}: histogram {exc}; give another scale with "
                           f"--sigma {name}=VALUE or fewer levels with {levels_flags}") from None
    except MemoryError:
        raise DatasetError(f"column {name!r}: the histogram levels do not fit in memory; "
                           f"give fewer levels with {levels_flags}") from None


def _column_partition(schema: ColumnSchema, args) -> Partition:
    """The column's --partition CustomPartition if it has one, else its HistogramSequence."""
    path = args.partition.get(schema.name)
    if path is None:
        return HistogramSequence(schema.center, schema.scale, max_level=args.levels)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            partition = CustomPartition(json.load(fh))
        except UnicodeDecodeError as exc:
            raise DatasetError(f"--partition {schema.name}={path}: not valid JSON: {exc}") from None
        except _MALFORMED as exc:
            raise DatasetError(f"custom partition for {schema.name!r}: {_reason(exc)}") from None
    if not partition.verify_refinement():
        raise DatasetError(f"custom partition for {schema.name!r}: partition is not a refinement "
                           "sequence: some level drops a cut point of the level before")
    return partition


def _load_columns(args, *wanted):
    """(names, columns, schemas) of the input file, its flags checked and the wanted columns found."""
    _parse_flags(args)
    names, columns = parse_dataset(args.data)
    schemas = _resolve_schemas(names, columns, args)
    for name in wanted:
        if name not in names:
            raise DatasetError(f"unknown column {name!r}")
    return names, columns, schemas


def _base_report(command: str, args, columns, schemas) -> dict:
    return {
        "command": command,
        "input": args.data,
        "n_rows": int(columns[0].size),
        "schema": [s.to_config() for s in schemas],
    }


def _cmd_codelength(args):
    names, columns, schemas = _load_columns(args)
    report = _base_report("codelength", args, columns, schemas)
    report["levels"] = args.levels
    report["columns"] = {}
    for name, fitted in _fit_columns(args.data, names, columns, schemas, names, args).items():
        bits = fitted.codelength_bits()
        report["columns"][name] = {"codelength_bits": bits,
                                   "bits_per_sample": bits / fitted.values.size}
    _emit(report, args.output)


def _cmd_density(args):
    for flag, value in (("--grid-min", args.grid_min), ("--grid-max", args.grid_max)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite")
    if args.grid_points < 1:
        raise ValueError("--grid-points must be at least 1")
    names, columns, schemas = _load_columns(args, args.column)
    idx = names.index(args.column)
    column, schema = columns[idx], schemas[idx]
    with _fit_named(args.data, args.column, "--levels"):
        est = MixtureEstimator(_column_partition(schema, args), schema.measure)
        est.observe_many(column)
    lo = float(column.min()) if args.grid_min is None else args.grid_min
    hi = float(column.max()) if args.grid_max is None else args.grid_max
    if not math.isfinite(hi - lo):
        raise ValueError(f"column {args.column!r}: density grid from {lo!r} to {hi!r} is wider "
                         f"than the largest float; give nearer ends with --grid-min/--grid-max")
    try:
        grid = np.linspace(lo, hi, args.grid_points)
    except MemoryError:
        raise ValueError(f"column {args.column!r}: a density grid of {args.grid_points} points does "
                         "not fit in memory; give fewer points with --grid-points") from None
    density = []
    for point in grid:
        try:
            density.append(est.density_at(float(point)))
        except OutOfSupportError:
            density.append(None)
    report = _base_report("density", args, columns, schemas)
    report["column"] = args.column
    report["levels"] = args.levels
    report["grid"] = [float(g) for g in grid]
    report["density"] = density
    report["state"] = est.export_state()
    _emit(report, args.output)


def _fit_columns(path, names, columns, schemas, wanted, args) -> dict:
    """FittedColumn of each distinct wanted column in order, with its --joint-levels partition if set."""
    joint_levels = getattr(args, "joint_levels", None)
    flags = "--levels" if joint_levels is None else "--levels/--joint-levels"
    fitted = {}
    for name in dict.fromkeys(wanted):
        i = names.index(name)
        with _fit_named(path, name, flags):
            fitted[name] = FittedColumn.fit(columns[i], _column_partition(schemas[i], args),
                                            schemas[i].measure, joint_levels)
    return fitted


def _score(fitted, name_x, name_y, prior_p):
    """score_pair of two fitted columns, its errors naming the pair."""
    try:
        return score_pair(fitted[name_x], fitted[name_y], prior_p)
    except ValueError as exc:
        raise ValueError(f"columns {name_x!r} and {name_y!r}: {exc}") from None
    except MemoryError:
        raise ValueError(f"columns {name_x!r} and {name_y!r}: the joint grid does not fit in "
                         "memory; give fewer levels with --joint-levels") from None


def _cmd_indep(args):
    names, columns, schemas = _load_columns(args, args.col_x, args.col_y)
    fitted = _fit_columns(args.data, names, columns, schemas, (args.col_x, args.col_y), args)
    pair = _score(fitted, args.col_x, args.col_y, args.prior_p)
    report = _base_report("indep", args, columns, schemas)
    report["columns"] = [args.col_x, args.col_y]
    report["report"] = pair.to_dict()
    _emit(report, args.output)


def _cmd_forest(args):
    names, columns, schemas = _load_columns(args)
    fitted = _fit_columns(args.data, names, columns, schemas, names, args)
    pair_table = {(x, y): _score(fitted, x, y, args.prior_p) for x, y in combinations(names, 2)}
    pairs_out = sorted(({"columns": sorted(pair), **report.to_dict()}
                        for pair, report in pair_table.items()), key=lambda entry: entry["columns"])
    edges = build_forest(pair_table)
    report = _base_report("forest", args, columns, schemas)
    report["pairs"] = pairs_out
    report["edges"] = [{"columns": [e.u, e.v], "weight": e.weight} for e in edges]
    _emit(report, args.output)


def _parse_column_specs(text: str) -> list:
    specs = []
    seen = set()
    for item in text.split(","):
        name, sep, kind = item.partition("=")
        name, kind = name.strip(), kind.strip()
        if not sep or not name or not kind:
            raise ValueError(f"--columns expects NAME=KIND entries, got {item!r}")
        if name in seen:
            raise ValueError(f"duplicate simulated column {name!r}")
        if kind.startswith("copy:"):
            source = kind[len("copy:"):]
            if source not in seen:
                raise ValueError(f"copy source {source!r} must be declared earlier")
        elif kind not in SIMULATE_KINDS:
            raise ValueError(f"unknown generator {kind!r} for column {name!r}")
        seen.add(name)
        specs.append((name, kind))
    return specs


def _cmd_simulate(args):
    specs = _parse_column_specs(args.columns)
    if args.rows < 1:
        raise ValueError("--rows must be at least 1")
    rng = np.random.default_rng(args.seed)
    data: dict[str, np.ndarray] = {}
    try:   # every step below holds arrays or text of --rows rows
        for name, kind in specs:
            if kind == "gaussian":
                data[name] = rng.standard_normal(args.rows)
            elif kind == "uniform":
                data[name] = rng.random(args.rows)
            elif kind == "bernoulli":
                data[name] = rng.integers(0, 2, args.rows).astype(float)
            elif kind == "mixed":
                spike = rng.random(args.rows) < 0.5
                body = rng.random(args.rows)
                data[name] = np.where(spike, 1.0, body)
            else:
                data[name] = data[kind[len("copy:"):]].copy()
        lines = [",".join(name for name, _ in specs)]
        for i in range(args.rows):
            lines.append(",".join(repr(float(data[name][i])) for name, _ in specs))
        text = "\n".join(lines) + "\n"
    except MemoryError:
        raise ValueError(f"{args.rows} simulated rows do not fit in memory; "
                         "give fewer with --rows") from None
    _atomic_write(args.output, text)
    summary = {
        "command": "simulate",
        "columns": [name for name, _ in specs],
        "rows": args.rows,
        "seed": args.seed,
        "output": args.output,
    }
    sys.stdout.write(json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _add_common_flags(sub, joint=False):
    sub.add_argument("data", help="comma-delimited input file with a header row")
    sub.add_argument("--levels", type=int, default=DEFAULT_MAX_LEVEL,
                     help="partition depth per column (default %(default)s)")
    if joint:
        sub.add_argument("--joint-levels", type=int, default=DEFAULT_JOINT_LEVEL,
                         dest="joint_levels",
                         help="partition depth per axis of the joint grid (default %(default)s)")
        sub.add_argument("--prior-p", type=float, default=0.5, dest="prior_p",
                         help="prior probability of independence (default %(default)s)")
    sub.add_argument("--mu", action="append", default=[], metavar="COL=VALUE",
                     help="histogram center override, repeatable")
    sub.add_argument("--sigma", action="append", default=[], metavar="COL=VALUE",
                     help="histogram scale override, repeatable")
    sub.add_argument("--schema", metavar="PATH", help="JSON schema overrides")
    if not joint:
        sub.add_argument("--partition", action="append", default=[], metavar="COL=PATH",
                         help="custom partition (JSON cut-point arrays per level), repeatable")
    sub.add_argument("--output", metavar="PATH", help="write the JSON report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ktmix",
        description="Universal codelengths, densities, and dependence tests "
                    "for discrete, continuous, and mixed numeric columns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codelength", help="per-column codelength in bits")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_codelength)

    p = sub.add_parser("density", help="predictive density of one column on a grid")
    _add_common_flags(p)
    p.add_argument("column")
    p.add_argument("--grid-min", type=float, default=None, dest="grid_min")
    p.add_argument("--grid-max", type=float, default=None, dest="grid_max")
    p.add_argument("--grid-points", type=int, default=201, dest="grid_points")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("indep", help="independence decision for two columns")
    _add_common_flags(p, joint=True)
    p.add_argument("col_x")
    p.add_argument("col_y")
    p.set_defaults(func=_cmd_indep)

    p = sub.add_parser("forest", help="dependency forest over all columns")
    _add_common_flags(p, joint=True)
    p.set_defaults(func=_cmd_forest)

    p = sub.add_parser("simulate", help="write a seeded synthetic dataset")
    p.add_argument("--columns", required=True,
                   help="NAME=KIND[,NAME=KIND...]; kinds: gaussian, uniform, "
                        "bernoulli, mixed, copy:COL")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (DatasetError, OutOfSupportError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
