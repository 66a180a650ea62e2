"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see one line per
criterion.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import itertools
import json
import math

import numpy as np

from ktmix.cli import main
from ktmix.estimator import MixtureEstimator
from ktmix.joint import analyze_pair, build_forest
from ktmix.kt import KtState, kt_log_prob_closed_form
from ktmix.measure import (
    CountingMeasure,
    Interval,
    LebesgueMeasure,
    scaled,
    sum_measure,
)
from ktmix.partition import HistogramSequence


def _check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_c01_kraft_equality():
    worst = 0.0
    for m in (2, 3):
        for n in range(1, 7):
            total = 0.0
            for seq in itertools.product(range(m), repeat=n):
                st = KtState(m)
                for s in seq:
                    st.observe(s)
                total += math.exp(st.log_prob)
            worst = max(worst, abs(total - 1.0))
    _check(1, "kraft-equality", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_c02_closed_form_agreement():
    rng = np.random.default_rng(1012)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(1, 10_001))
        symbols = rng.integers(0, m, size=n).tolist()
        st = KtState(m)
        for s in symbols:
            st.observe(s)
        closed = kt_log_prob_closed_form(
            {int(s): int(c) for s, c in zip(*np.unique(symbols, return_counts=True))}, m
        )
        worst = max(worst, abs(st.log_prob - closed))
    _check(2, "kt-closed-form-agreement", worst <= 1e-10, f"max |diff| {worst:.2e}")


def test_c03_entropy_convergence():
    rng = np.random.default_rng(303)
    n = 2**17
    symbols = (rng.random(n) < 0.2).astype(np.int64)
    st = KtState(2)
    st.observe_many(symbols)
    entropy = -(0.2 * math.log(0.2) + 0.8 * math.log(0.8))
    gap = abs(-st.log_prob / n - entropy)
    _check(3, "kt-entropy-convergence", gap <= 0.02, f"gap {gap:.4f} nats")


def test_c04_histogram_structure():
    h = HistogramSequence(0.0, 1.0, max_level=12)
    ok = all(h.level_map(k).cuts.size == 2**k - 1 for k in range(1, 13))
    ok &= list(h.level_map(1).cuts) == [0.0]
    ok &= list(h.level_map(2).cuts) == [-1.0, 0.0, 1.0]
    ok &= list(h.level_map(3).cuts) == [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    ok &= h.verify_refinement()
    _check(4, "histogram-structure", ok)


def test_c05_gaussian_convergence():
    rng = np.random.default_rng(505)
    ys = rng.standard_normal(2**16)
    est = MixtureEstimator(
        HistogramSequence(float(ys.mean()), float(ys.std()), max_level=16),
        LebesgueMeasure(),
    )
    est.observe_many(ys)
    rate = -est.log_density() / ys.size
    target = 0.5 * math.log(2 * math.pi * math.e)
    _check(5, "gaussian-convergence", abs(rate - target) <= 0.15,
           f"rate {rate:.4f} vs {target:.4f}")


def test_c06_uniform_convergence():
    rng = np.random.default_rng(606)
    ys = rng.random(2**15)
    support = Interval(0.0, 1.0, True, False)
    est = MixtureEstimator(
        HistogramSequence(float(ys.mean()), float(ys.std()), support=support, max_level=16),
        LebesgueMeasure(support),
    )
    est.observe_many(ys)
    rate = -est.log_density() / ys.size
    _check(6, "uniform-convergence", abs(rate) <= 0.10, f"rate {rate:.4f} vs 0")


def test_c07_mixed_convergence():
    rng = np.random.default_rng(707)
    n = 2**15
    zs = np.where(rng.random(n) < 0.5, 1.0, rng.random(n))
    measure = sum_measure(LebesgueMeasure(), CountingMeasure.from_atoms([1.0]))
    est = MixtureEstimator(
        HistogramSequence(float(zs.mean()), float(zs.std()), support=measure, max_level=16),
        measure,
    )
    est.observe_many(zs)
    rate = -est.log_density() / n
    _check(7, "mixed-convergence", abs(rate - math.log(2)) <= 0.10,
           f"rate {rate:.4f} vs {math.log(2):.4f}")


def test_c08_super_martingale_mean():
    support = Interval(0.0, 1.0, True, False)
    ratios = np.empty(1000)
    for trial in range(1000):
        rng = np.random.default_rng(8000 + trial)
        est = MixtureEstimator(
            HistogramSequence(0.5, 0.25, support=support, max_level=8),
            LebesgueMeasure(support),
        )
        est.observe_many(rng.random(50))
        ratios[trial] = math.exp(est.log_density())  # truth density is 1
    mean = float(ratios.mean())
    stderr = float(ratios.std(ddof=1) / math.sqrt(ratios.size))
    _check(8, "super-martingale-mean", mean <= 1 + 3 * stderr,
           f"mean {mean:.4f}, stderr {stderr:.4f}")


def test_c09_independence_decisions():
    counting = CountingMeasure.unit_integers()
    indep_wins = 0
    for trial in range(100):
        rng = np.random.default_rng(9100 + trial)
        xs = rng.integers(0, 2, 1000).astype(float)
        ys = rng.integers(0, 2, 1000).astype(float)
        report = analyze_pair(xs, ys, measure_x=counting, measure_y=counting)
        indep_wins += report.decision == "independent"
    dep_wins = 0
    for trial in range(100):
        rng = np.random.default_rng(9200 + trial)
        xs = rng.standard_normal(1000)
        report = analyze_pair(xs, xs.copy())
        dep_wins += report.decision == "dependent"
    ok = indep_wins >= 90 and dep_wins >= 95
    _check(9, "independence-decisions", ok,
           f"independent {indep_wins}/100, dependent {dep_wins}/100")


def test_c10_bayes_factor_scale_invariance():
    rng = np.random.default_rng(1010)
    xs = rng.standard_normal(500)
    ys = xs + rng.standard_normal(500)
    base = analyze_pair(xs, ys)
    worst = 0.0
    for c in (0.1, 10.0):
        report = analyze_pair(xs, ys, measure_x=scaled(LebesgueMeasure(), c))
        worst = max(worst, abs(report.log_bayes_factor - base.log_bayes_factor))
    _check(10, "scale-invariance", worst <= 1e-9, f"max |shift| {worst:.2e}")


def test_c11_forest_recovery():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(11_000 + seed)
        xs = rng.standard_normal(500)
        ys = xs + 0.01 * rng.standard_normal(500)
        zs = rng.standard_normal(500)
        table = {}
        for (na, a), (nb, b) in itertools.combinations(
                [("X", xs), ("Y", ys), ("Z", zs)], 2):
            table[(na, nb)] = analyze_pair(a, b)
        edges = build_forest(table)
        hits += [(e.u, e.v) for e in edges] == [("X", "Y")]
    _check(11, "forest-recovery", hits >= 18, f"{hits}/20 exact recoveries")


def test_c12_cli_determinism(tmp_path, capsys):
    fixture = str(tmp_path / "fixture.csv")
    sim = ["simulate", "--columns", "x=gaussian,b=bernoulli,y=copy:x",
           "--rows", "120", "--seed", "5", "--output", fixture]
    assert main(list(sim)) == 0
    first_csv = open(fixture, "rb").read()
    sim_out1 = capsys.readouterr().out
    assert main(list(sim)) == 0
    sim_out2 = capsys.readouterr().out
    ok = first_csv == open(fixture, "rb").read() and sim_out1 == sim_out2

    commands = [
        ["codelength", fixture, "--levels", "8"],
        ["density", fixture, "x", "--levels", "8", "--grid-points", "16"],
        ["indep", fixture, "x", "y", "--levels", "8", "--joint-levels", "4"],
        ["forest", fixture, "--levels", "8", "--joint-levels", "4"],
    ]
    for argv in commands:
        assert main(list(argv)) == 0
        out1 = capsys.readouterr().out
        assert main(list(argv)) == 0
        out2 = capsys.readouterr().out
        ok &= out1 == out2 and bool(json.loads(out1))
    _check(12, "cli-determinism", ok)
