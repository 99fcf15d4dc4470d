"""Test-wide settings.

Hypothesis runs under a derandomized profile: every run draws the same
examples, whatever the local example database holds, and no example is
timed out.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
