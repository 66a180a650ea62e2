"""Self-tests of the benchmark: metric names, output checks, counts, exit codes.

Run with `python -m pytest bench/tests` from the repository root.  They use
tiny versions of the workloads, so they take seconds, not minutes.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from spans import COUNT_METRICS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "codelength-tall": dataclasses.replace(workloads.WORKLOADS["codelength-tall"], rows=3000),
    "forest-mixed": dataclasses.replace(
        workloads.WORKLOADS["forest-mixed"], rows=400,
        specs=(("x", "gaussian"), ("y", "copy:x"), ("m", "mixed"), ("w", "copy:m")),
    ),
    "stream-prequential": dataclasses.replace(workloads.WORKLOADS["stream-prequential"], samples=300),
}


def tiny_run(name, seed, trace, tmp_path):
    import ktmix

    workload = TINY[name]
    inputs = workload.generate(seed, str(tmp_path))
    expected = workload.prepare(inputs)
    return run.measure(workload, inputs, expected, ktmix, 0.01, trace, tmp_path / "spans.json")


def test_spec_names_the_workloads_and_units():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_emits_every_metric(name, tmp_path):
    jobs, metrics, _ = tiny_run(name, 3, False, tmp_path)
    assert not any(job["problems"] for job in jobs)
    assert set(metrics) | {"setup_s"} == set(run.END_TO_END_UNITS)
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())

    jobs, metrics, _ = tiny_run(name, 3, True, tmp_path)
    assert not any(job["problems"] for job in jobs)
    assert [job["traced"] for job in jobs][:2] == [False, True]
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["trace.accounted_frac"] > 0.9
    assert json.loads((tmp_path / "spans.json").read_text())


@pytest.mark.parametrize("name", list(TINY))
def test_counts_repeat_for_one_seed(name, tmp_path):
    _, first, _ = tiny_run(name, 5, True, tmp_path)
    _, second, _ = tiny_run(name, 5, True, tmp_path)
    assert {k: first[k] for k in COUNT_METRICS} == {k: second[k] for k in COUNT_METRICS}


def test_layer_counts_match_the_workload_shape(tmp_path):
    _, metrics, _ = tiny_run("forest-mixed", 1, True, tmp_path)
    assert metrics["joint.pairs"] == 6
    assert metrics["estimator.fits_per_column"] == 3.0
    assert metrics["joint.grid_states"] == 6 * 81
    assert metrics["data.cells"] == 4 * 400


def _corrupt_codelength(output):
    report = json.loads(output["stdout"])
    report["columns"]["gauss"]["codelength_bits"] *= 1 + 1e-6
    return {**output, "stdout": json.dumps(report)}


def _corrupt_forest(output):
    report = json.loads(output["stdout"])
    for pair in report["pairs"]:
        if pair["columns"] == ["x", "y"]:
            pair["decision"] = "independent"
    return {**output, "stdout": json.dumps(report)}


def _corrupt_stream(output):
    return {**output, "log_density": output["log_density"] + 1e-6}


@pytest.mark.parametrize("name, corrupt, complaint", [
    ("codelength-tall", _corrupt_codelength, "closed form gives"),
    ("forest-mixed", _corrupt_forest, "not decided dependent"),
    ("stream-prequential", _corrupt_stream, "sequential and batch log density differ"),
])
def test_corrupted_output_counts_as_failed(name, corrupt, complaint, tmp_path, monkeypatch):
    cls = type(TINY[name])
    job = cls.job
    monkeypatch.setattr(cls, "job", lambda self, inputs: corrupt(job(self, inputs)))
    jobs, metrics, _ = tiny_run(name, 2, False, tmp_path)
    assert jobs and all(any(complaint in p for p in job["problems"]) for job in jobs)
    assert metrics["ops_ok_frac"] == 0.0


def test_cli_prints_result_line_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream-prequential", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert set(detail["environment"]) >= {"python", "numpy", "scipy", "nproc", "cpu", "commit", "seed"}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "stream-prequential", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
