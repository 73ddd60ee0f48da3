"""Test-session settings: every Hypothesis test draws the same examples on
every run, and keeps no example database between runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
