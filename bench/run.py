"""ktmix benchmark: one workload, one seed, one line of metrics.

    python3 bench/run.py --workload codelength-tall --seed 1 --seconds 32 --trace 0

Builds the workload's inputs from the seed, runs whole jobs back to back
until --seconds have passed (at least one), checks every job's output, and
prints one JSON line of details (environment, job times, problems) followed
by the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones (medians), plus the tracing overhead; the spans
of the last traced job are written to bench/out/ (or --spans PATH).

The program is imported from the src/ directory next to bench/, never from
an installed copy; without it the benchmark exits with status 2.
See bench/README.md for the workloads and how to read the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from array import array
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Input generation is repeated this many times per run; setup_s reports the median.
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "frac",
    "sample_p50_us": "us",
    "sample_p99_us": "us",
}

PER_LAYER_UNITS = {
    "data.parse_dataset.s": "s",
    "data.build_schema.s": "s",
    "data.cells": "count",
    "partition.level_map.s": "s",
    "partition.kept_cells": "count",
    "measure.masses_half_open.s": "s",
    "kt.observe_many.s": "s",
    "kt.symbol_trips": "count",
    "kt.observe.calls": "count",
    "estimator.level_alphabet.s": "s",
    "estimator.observe_many.s": "s",
    "estimator.observe.s": "s",
    "estimator.density_at.s": "s",
    "estimator.live_levels": "count",
    "estimator.fits_per_column": "ratio",
    "joint.observe_many.s": "s",
    "joint.grid_states": "count",
    "joint.symbol_trips": "count",
    "joint.analyze_pair.s": "s",
    "joint.analyze_pair.self_s": "s",
    "joint.pairs": "count",
    "joint.build_forest.s": "s",
    "cli.main.s": "s",
    "cli.self.s": "s",
    "data.self.s": "s",
    "partition.self.s": "s",
    "measure.self.s": "s",
    "kt.self.s": "s",
    "estimator.self.s": "s",
    "joint.self.s": "s",
    "trace.count.s": "s",
    "trace.job.s": "s",
    "trace.accounted_frac": "frac",
    "trace.overhead_frac": "frac",
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import ktmix from this checkout's src/ directory."""
    if not (SRC / "ktmix" / "__init__.py").is_file():
        raise ProgramMissing(f"no ktmix package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ktmix
    import ktmix.cli  # noqa: F401

    if Path(ktmix.__file__).resolve().parent != SRC / "ktmix":
        raise ProgramMissing(f"imported ktmix from {ktmix.__file__}, not from {SRC}")
    return ktmix


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ktmix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git directly; 'none' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def run_job(workload, inputs, expected, ktmix, tracer=None) -> dict:
    """Time one job (traced when a tracer is given) and check its output."""
    from spans import traced

    output = None
    gc.collect()  # each job starts from a collected heap, as a fresh CLI process would
    start = perf_counter()
    try:
        if tracer is None:
            start = perf_counter()
            output = workload.job(inputs)
            seconds = perf_counter() - start
        else:
            with traced(ktmix, tracer):
                start = perf_counter()
                output = workload.job(inputs)
                seconds = perf_counter() - start
        problems = workload.check(inputs, expected, output)
    except Exception as exc:  # a failing job is counted, and the run goes on
        seconds = perf_counter() - start
        problems = [f"{type(exc).__name__}: {exc}"]
    return {"traced": tracer is not None, "seconds": seconds, "problems": problems,
            "output": output}


def measure(workload, inputs, expected, ktmix, seconds: float, trace: bool, spans_path: Path):
    """Run jobs for `seconds`; returns (jobs, metrics, detail)."""
    from spans import COUNT_METRICS, Tracer, layer_metrics

    jobs = []
    layer_runs = []
    last_spans = None
    samples = array("d")
    start = perf_counter()
    while True:
        tracer = Tracer() if trace and len(jobs) % 2 == 1 else None
        job = run_job(workload, inputs, expected, ktmix, tracer)
        # Keep only the sample latencies, so that memory held by the
        # benchmark does not grow with the number of jobs.
        output = job.pop("output")
        if tracer is None and output is not None:
            samples.extend(workload.sample_seconds(output, job["seconds"]))
        del output
        if tracer is not None:
            layers = layer_metrics(tracer, job["seconds"], workload.columns)
            if layer_runs:
                changed = [name for name in COUNT_METRICS if layers[name] != layer_runs[0][name]]
                if changed:
                    job["problems"].append(f"counts changed between traced jobs: {changed}")
            layer_runs.append(layers)
            last_spans = tracer.dump(len(jobs))
        jobs.append(job)
        # Stop once another job would probably end more than half a job past
        # the deadline, so a run lasts about `seconds` even for long jobs.
        typical = statistics.median(j["seconds"] for j in jobs)
        if len(jobs) >= (2 if trace else 1) and perf_counter() - start + typical / 2 >= seconds:
            break

    plain = [job for job in jobs if not job["traced"]]
    plain_s = [job["seconds"] for job in plain]
    detail = {"jobs_s": [round(j["seconds"], 6) for j in jobs],
              "traced": [j["traced"] for j in jobs]}
    if trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            statistics.median(run["trace.job.s"] for run in layer_runs)
            / statistics.median(plain_s) - 1.0
        )
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        spans_path.write_text(json.dumps(last_spans) + "\n", encoding="utf-8")
        detail["spans_file"] = str(spans_path)
        detail["counts"] = {name: metrics[name] for name in COUNT_METRICS}
    else:
        if not samples:  # every job raised; the result line says so
            samples.append(0.0)
        metrics = {
            "job_p50_s": statistics.median(plain_s),
            "work_per_s": workload.work() * len(plain) / sum(plain_s),
            "peak_rss_mb": peak_rss_mb(),
            "ops_ok_frac": sum(not j["problems"] for j in jobs) / len(jobs),
            "sample_p50_us": statistics.median(samples) * 1e6,
            "sample_p99_us": percentile(samples, 99) * 1e6,
        }
        detail["samples"] = len(samples)
        detail["sample_unit"] = "observe call" if workload.work_unit == "samples" else "row, per job"
    return jobs, metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="where --trace 1 writes its spans (default bench/out/)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    started = perf_counter()
    try:
        ktmix = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = perf_counter() - started
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spans_path = args.spans or BENCH_DIR / "out" / f"spans-{workload.name}-seed{args.seed}.json"

    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as workdir:
        generate_s = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            inputs = workload.generate(args.seed, workdir)
            generate_s.append(perf_counter() - t0)
        t0 = perf_counter()
        expected = workload.prepare(inputs)
        prepare_s = perf_counter() - t0
        jobs, metrics, detail = measure(workload, inputs, expected, ktmix,
                                        args.seconds, bool(args.trace), spans_path)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if not args.trace:
        metrics["setup_s"] = import_s + statistics.median(generate_s)

    failed = [job for job in jobs if job["problems"]]
    detail.update({
        "workload": workload.name,
        "environment": environment(args.seed),
        "trace": args.trace,
        "import_s": import_s,
        "generate_s": generate_s,
        "prepare_s": prepare_s,
        "work_per_job": workload.work(),
        "work_unit": workload.work_unit,
        "problems": [p for job in failed for p in job["problems"]][:10],
    })
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
