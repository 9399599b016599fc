"""Test-wide settings.

Hypothesis runs under one profile: examples are derived from each test's
name rather than drawn at random, so a run is reproducible, and there is no
per-example deadline, so the heavier interval-kernel properties cannot fail
on a slow or busy machine.
"""

from hypothesis import settings

settings.register_profile("opnkit", derandomize=True, deadline=None)
settings.load_profile("opnkit")
