"""Test-suite settings: property tests run a fixed, bounded set of examples."""

import sys
from pathlib import Path

from hypothesis import HealthCheck, settings

# Hypothesis draws some values from a pool of constants that it harvests from
# every loaded module outside the tests, so a module that only some tests load
# (tests/test_bench_surface.py loads bench/spans.py and bench/workloads.py)
# would change the examples other tests draw, depending on which tests run.
# Loading those modules here, before any test, fixes the pool for every
# selection of tests.
BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH_DIR))
try:
    import spans  # noqa: F401
    import workloads  # noqa: F401
finally:
    sys.path.remove(str(BENCH_DIR))

# derandomize makes every run draw the same examples, so the suite stays
# reproducible; deadline=None because estimator construction times vary
# with host load, not with the property under test.
settings.register_profile(
    "ktmix",
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ktmix")
