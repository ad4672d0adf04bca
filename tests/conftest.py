"""Hypothesis profiles for the test suite.

``--hypothesis-profile=ci`` derandomizes every property test, so a failure on
a CI runner replays with the same examples locally, and prints the blob that
reproduces it.  Without the flag, Hypothesis keeps its default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
