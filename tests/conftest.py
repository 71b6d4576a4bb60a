"""Settings shared by every test module."""

from hypothesis import settings

# Draw the same examples on every run and keep no example database, so that
# a property test's verdict does not hinge on a random draw or on a run
# before it.  Per-test @settings still set max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
