"""The library surface that the benchmark in bench/ reaches, checked on every test run.

bench/spans.py traces a job by wrapping public ktmix functions and methods
and reading counts off what they return; bench/workloads.py checks every
codelength job against a closed-form recomputation built from public names.
A change to src that renames or drops one of those names breaks the
benchmark and nothing else, so these tests run the benchmark's own code on a
small fit.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

import ktmix

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    """The benchmark's spans and workloads modules, imported from bench/."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH_DIR))
    return spans, workloads


def test_tracing_wraps_counts_and_restores_the_library(bench):
    spans, _ = bench
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(-0.9, 0.9, 200), rng.uniform(-0.9, 0.9, 200)   # inside level 2's bounded cells
    originals = (ktmix.MixtureEstimator.observe_many, ktmix.JointEstimator.__init__,
                 ktmix.Partition.level_map, ktmix.estimator.level_alphabet)
    tracer = spans.Tracer()
    with spans.traced(ktmix, tracer):
        est = ktmix.MixtureEstimator(ktmix.HistogramSequence(0.0, 1.0, max_level=4),
                                     ktmix.LebesgueMeasure())
        est.observe_many(xs)
        est.observe(0.5)
        est.density_at(0.1)
        joint = ktmix.JointEstimator(ktmix.HistogramSequence(0.0, 1.0, max_level=3),
                                     ktmix.HistogramSequence(0.0, 1.0, max_level=3),
                                     ktmix.LebesgueMeasure(), ktmix.LebesgueMeasure())
        joint.observe_many(xs, ys)
    assert (ktmix.MixtureEstimator.observe_many, ktmix.JointEstimator.__init__,
            ktmix.Partition.level_map, ktmix.estimator.level_alphabet) == originals

    metrics = spans.layer_metrics(tracer, 1.0, columns=1)
    assert metrics["partition.kept_cells"] == (1 + 2 + 4 + 8 + 16) + 2 * (1 + 2 + 4 + 8)
    assert metrics["joint.grid_states"] == 4 * 4
    assert metrics["kt.observe.calls"] == 5        # one per level of the one observe
    assert metrics["estimator.live_levels"] == 3   # levels 0 and 1 have only unbounded cells
    assert metrics["estimator.fits_per_column"] == 1.0
    for name in ("estimator.observe_many.s", "estimator.observe.s", "estimator.density_at.s",
                 "estimator.level_alphabet.s", "joint.observe_many.s", "partition.level_map.s",
                 "measure.masses_half_open.s"):
        assert metrics[name] > 0, name


@pytest.mark.parametrize("kind", ["gaussian", "mixed", "bernoulli"])
def test_closed_form_recomputation_matches_the_estimator(bench, kind):
    _, workloads = bench
    values = workloads.simulate(np.random.default_rng(7), (("c", kind),), 500)["c"]
    schema = ktmix.build_schema("c", values)
    est = ktmix.MixtureEstimator(ktmix.HistogramSequence(schema.center, schema.scale, max_level=8),
                                 schema.measure)
    est.observe_many(values)
    bits = est.codelength_bits()
    assert math.isfinite(bits)
    assert math.isclose(workloads.closed_form_bits(values, schema, 8), bits,
                        rel_tol=workloads.CODELENGTH_RTOL)
