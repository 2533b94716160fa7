"""Hypothesis profiles.  ``ci`` derandomizes every property test, so a
failure seen in CI reproduces from the same examples; select it with
``HYPOTHESIS_PROFILE=ci``.  Without the variable hypothesis keeps its own
default profile."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
