"""Hypothesis profiles.

``ci`` draws every property's examples from a fixed seed and prints the
blob that replays a failing example, so a failure seen in CI reproduces
locally with ``python -m pytest --hypothesis-profile=ci``.  Without the
flag the default profile draws fresh examples on every run.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
