"""Test-session settings shared by every test module."""

from hypothesis import settings

# Derandomized: each property test draws the same examples on every run, so
# the suite passes or fails the same way each time. No example database, so
# a run leaves no state behind that could change the next one.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
