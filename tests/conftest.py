"""Test-suite settings: property tests run a fixed, bounded set of examples."""

from hypothesis import HealthCheck, settings

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
