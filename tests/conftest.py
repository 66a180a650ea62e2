"""Test-suite settings: property tests run a fixed, bounded set of examples."""

import sys
from pathlib import Path

from hypothesis import HealthCheck, Phase, settings

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
# tools/mutants.py runs each mutant's tests with --hypothesis-profile=mutants:
# a property test stops at its first failing example, unshrunk, since a kill
# needs a failure, not the smallest failing example, and shrinking is most of
# the time a mutant's tests take.  The profile lives here, not in the tool,
# because hypothesis harvests constants from every loaded module outside the
# tests, and a plugin module would add its own to the pool.
settings.register_profile("mutants", settings.get_profile("ktmix"), report_multiple_bugs=False,
                          phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("ktmix")
