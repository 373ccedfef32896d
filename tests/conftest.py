"""Hypothesis runs the same examples on every run: each property test
draws from a fixed derandomized stream and keeps no example database."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
