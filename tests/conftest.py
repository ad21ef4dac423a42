"""Test-suite configuration: hypothesis draws the same examples on every
run, with no example database, so one commit's tier-1 verdict does not
change from run to run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
