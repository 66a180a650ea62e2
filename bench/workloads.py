"""The three benchmark workloads: input generation, the timed job, output checks.

Every input is a function of the seed alone.  The CLI workloads hand the
program nothing but the generated CSV file; the stream workload feeds the
library one generated sample at a time, as a caller of the library would.
The output checks do not depend on the seed's particular values, so a claim
made on one seed can be re-checked on another.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import ktmix
import ktmix.cli
from ktmix.estimator import level_alphabet

LOG2 = math.log(2.0)

# Relative agreement required between the CLI's sequential codelength and the
# closed-form recomputation.  Both sum ~1e6 logarithms in float64, so they
# differ by rounding only: ~1e-15 relative, far inside this bound.
CODELENGTH_RTOL = 1e-9

# Absolute bound on |sequential - batch| log density, the one
# test_batch_equals_sequential uses.
BATCH_SEQUENTIAL_ATOL = 1e-9


def simulate(rng: np.random.Generator, specs, rows: int) -> dict:
    """Columns drawn the way `ktmix simulate` draws them, in spec order."""
    data: dict = {}
    for name, kind in specs:
        if kind == "gaussian":
            data[name] = rng.standard_normal(rows)
        elif kind == "uniform":
            data[name] = rng.random(rows)
        elif kind == "bernoulli":
            data[name] = rng.integers(0, 2, rows).astype(float)
        elif kind == "mixed":
            spike = rng.random(rows) < 0.5
            body = rng.random(rows)
            data[name] = np.where(spike, 1.0, body)
        elif kind.startswith("copy:"):
            data[name] = data[kind[len("copy:"):]].copy()
        else:
            raise ValueError(f"unknown generator {kind!r}")
    return data


def write_csv(path: str, data: dict, chunk: int = 100_000):
    """Header plus shortest round-trip float text, written in row chunks.

    Chunking keeps the generator's memory far below the parser's, so the
    process's peak resident set is the program's, not the benchmark's.
    """
    columns = list(data.values())
    rows = columns[0].size
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(data) + "\n")
        for lo in range(0, rows, chunk):
            cells = [map(repr, col[lo:lo + chunk].tolist()) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def run_cli(argv) -> dict:
    """One in-process CLI invocation, with its report captured in memory."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = ktmix.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue()}


def cli_report(output: dict, problems: list) -> dict | None:
    if output["rc"] != 0:
        problems.append(f"CLI exit code {output['rc']}")
        return None
    try:
        return json.loads(output["stdout"])
    except json.JSONDecodeError as exc:
        problems.append(f"report is not JSON: {exc}")
        return None


def _logsumexp(values) -> float:
    values = np.asarray(values, dtype=float)
    hi = float(values.max())
    if hi == -math.inf:
        return -math.inf
    return hi + math.log(float(np.exp(values - hi).sum()))


def closed_form_bits(values: np.ndarray, schema, levels: int) -> float:
    """Mixture codelength from final per-level counts, via the KT closed form.

    Independent of the estimator's sequential path: it bins with the level
    alphabets, counts with bincount, and scores each level with
    kt_log_prob_closed_form minus the log reference masses of the cells.
    """
    partition = ktmix.HistogramSequence(
        schema.center, schema.scale, support=schema.measure, max_level=levels
    )
    log_w = np.log(np.asarray(ktmix.LevelWeights.default(levels).values))
    lld = np.full(levels + 1, -math.inf)
    for k in range(levels + 1):
        raw_to_alpha, log_eta = level_alphabet(partition, schema.measure, k)
        symbols = raw_to_alpha[np.searchsorted(partition.level_map(k).cuts, values, side="left")]
        if not log_eta.size or (symbols < 0).any():
            continue
        counts = np.bincount(symbols, minlength=log_eta.size)
        used = np.flatnonzero(counts)
        log_q = ktmix.kt_log_prob_closed_form(
            dict(zip(used.tolist(), counts[used].tolist())), log_eta.size
        )
        lld[k] = log_q - float(counts[used] @ log_eta[used])
    log_g = _logsumexp(log_w + lld)
    return math.inf if log_g == -math.inf else -log_g / LOG2


@dataclass(frozen=True)
class CodelengthTall:
    """`ktmix codelength` on a tall file: ingest plus one batch fit per column."""

    name: str = "codelength-tall"
    rows: int = 1_000_000
    specs: tuple = (("gauss", "gaussian"), ("mixed", "mixed"), ("bern", "bernoulli"))
    kinds: tuple = ("continuous", "mixed", "discrete")
    work_unit: str = "cells"

    @property
    def columns(self) -> int:
        return len(self.specs)

    def work(self) -> int:
        return self.rows * len(self.specs)

    def generate(self, seed: int, workdir: str) -> dict:
        data = simulate(np.random.default_rng(seed), self.specs, self.rows)
        path = os.path.join(workdir, f"{self.name}.csv")
        write_csv(path, data)
        return {"path": path, "data": data}

    def prepare(self, inputs: dict) -> dict:
        # The jobs only read the CSV file; dropping the arrays here keeps the
        # benchmark's own memory out of peak_rss_mb.
        data = inputs.pop("data")
        expected = {}
        for (name, _), kind in zip(self.specs, self.kinds):
            schema = ktmix.build_schema(name, data[name])
            if schema.kind != kind:
                raise RuntimeError(f"generated column {name!r} reads as {schema.kind}, not {kind}")
            expected[name] = {
                "schema": json.loads(json.dumps(schema.to_config())),
                "bits": closed_form_bits(data[name], schema, ktmix.DEFAULT_MAX_LEVEL),
            }
        return expected

    def job(self, inputs: dict) -> dict:
        return run_cli(["codelength", inputs["path"]])

    def check(self, inputs: dict, expected: dict, output: dict) -> list:
        problems: list = []
        report = cli_report(output, problems)
        if report is None:
            return problems
        if report.get("n_rows") != self.rows:
            problems.append(f"n_rows {report.get('n_rows')} != {self.rows}")
        schemas = {entry["name"]: entry for entry in report.get("schema", [])}
        columns = report.get("columns", {})
        for name, want in expected.items():
            if schemas.get(name) != want["schema"]:
                problems.append(f"schema of {name!r} differs from build_schema")
            got = columns.get(name, {})
            bits = got.get("codelength_bits")
            if not isinstance(bits, float) or not math.isclose(bits, want["bits"], rel_tol=CODELENGTH_RTOL):
                problems.append(f"{name}: {bits!r} bits, closed form gives {want['bits']!r}")
            elif not math.isclose(got.get("bits_per_sample", math.nan), bits / self.rows,
                                  rel_tol=CODELENGTH_RTOL):
                problems.append(f"{name}: bits_per_sample disagrees with codelength_bits")
        return problems

    def sample_seconds(self, output: dict, job_s: float) -> list:
        return [job_s / self.rows]


@dataclass(frozen=True)
class ForestMixed:
    """`ktmix forest` on 8 mixed-kind columns: 28 pair analyses and a forest."""

    name: str = "forest-mixed"
    rows: int = 5000
    specs: tuple = (("x", "gaussian"), ("y", "copy:x"), ("z", "gaussian"), ("u", "uniform"),
                    ("v", "uniform"), ("b", "bernoulli"), ("m", "mixed"), ("w", "copy:m"))
    dependent: tuple = (("x", "y"), ("m", "w"))
    work_unit: str = "row-pairs"

    @property
    def columns(self) -> int:
        return len(self.specs)

    def work(self) -> int:
        d = len(self.specs)
        return self.rows * d * (d - 1) // 2

    def generate(self, seed: int, workdir: str) -> dict:
        data = simulate(np.random.default_rng(seed), self.specs, self.rows)
        path = os.path.join(workdir, f"{self.name}.csv")
        write_csv(path, data)
        return {"path": path}

    def prepare(self, inputs: dict) -> dict:
        return {}

    def job(self, inputs: dict) -> dict:
        return run_cli(["forest", inputs["path"]])

    def check(self, inputs: dict, expected: dict, output: dict) -> list:
        problems: list = []
        report = cli_report(output, problems)
        if report is None:
            return problems
        d = len(self.specs)
        pairs = {tuple(p["columns"]): p for p in report.get("pairs", [])}
        if len(pairs) != d * (d - 1) // 2:
            problems.append(f"{len(pairs)} pairs reported, expected {d * (d - 1) // 2}")
        edges = {tuple(e["columns"]) for e in report.get("edges", [])}
        for pair in self.dependent:
            key = tuple(sorted(pair))
            if pairs.get(key, {}).get("decision") != "dependent":
                problems.append(f"pair {key} not decided dependent")
            if key not in edges:
                problems.append(f"pair {key} is not a forest edge")
        return problems

    def sample_seconds(self, output: dict, job_s: float) -> list:
        return [job_s / self.rows]


@dataclass(frozen=True)
class StreamPrequential:
    """Sequential library use: per-sample observe with periodic density queries."""

    name: str = "stream-prequential"
    samples: int = 4000
    zero_fraction: float = 0.3
    query_every: int = 100
    grid: tuple = tuple(np.linspace(-3.0, 3.0, 21).tolist())
    levels: int = 16
    work_unit: str = "samples"
    columns: int = 1

    def work(self) -> int:
        return self.samples

    def generate(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        zero = rng.random(self.samples) < self.zero_fraction
        ys = np.where(zero, 0.0, rng.standard_normal(self.samples))
        return {"ys": ys.tolist()}

    def prepare(self, inputs: dict) -> dict:
        batch = self._estimator()
        batch.observe_many(inputs["ys"])
        return {"log_density": batch.log_density()}

    def _estimator(self):
        measure = ktmix.sum_measure(ktmix.LebesgueMeasure(), ktmix.CountingMeasure.from_atoms([0.0]))
        return ktmix.MixtureEstimator(ktmix.HistogramSequence(0.0, 1.0, max_level=self.levels), measure)

    def job(self, inputs: dict) -> dict:
        est = self._estimator()
        latencies = []
        densities = []
        for i, y in enumerate(inputs["ys"], start=1):
            t0 = perf_counter()
            est.observe(y)
            latencies.append(perf_counter() - t0)
            if i % self.query_every == 0:
                densities.extend(est.density_at(g) for g in self.grid)
        return {"log_density": est.log_density(), "latencies": latencies, "densities": densities}

    def check(self, inputs: dict, expected: dict, output: dict) -> list:
        problems = []
        gap = abs(output["log_density"] - expected["log_density"])
        if not gap <= BATCH_SEQUENTIAL_ATOL:
            problems.append(f"sequential and batch log density differ by {gap!r}")
        want = (self.samples // self.query_every) * len(self.grid)
        dens = output["densities"]
        if len(dens) != want or not all(math.isfinite(v) and v >= 0 for v in dens):
            problems.append("density grid answers are missing, negative or not finite")
        return problems

    def sample_seconds(self, output: dict, job_s: float) -> list:
        return output["latencies"]


WORKLOADS = {w.name: w for w in (CodelengthTall(), ForestMixed(), StreamPrequential())}
