"""Test-suite settings: hypothesis draws the same examples on every run.

``derandomize`` seeds each ``@given`` test from its own source, and no
example database carries failures from one run into the next, so two
runs of one commit test the same cases.  Example counts and deadlines
stay as each test sets them.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
