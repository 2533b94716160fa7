"""Hypothesis profiles.  ``ci`` derandomizes every property test, so a
failure seen in CI reproduces from the same examples; select it with
``HYPOTHESIS_PROFILE=ci``.  Without the variable hypothesis keeps its own
default profile.

The ``cpus`` fixture sets how many CPUs ``os.sched_getaffinity`` reports,
which is what ``plasso.path._map_paths`` sizes its worker pool by: one CPU
runs the refits in-process, two or more fork that many workers."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def cpus(monkeypatch):
    def report(n):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return report
