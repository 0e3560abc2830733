"""Hypothesis profiles. With CI set, as GitHub Actions sets it, every
property test draws the same examples on every run (the `ci` profile), so a
CI failure reproduces locally with `CI=true`; without it, runs explore at
random."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
