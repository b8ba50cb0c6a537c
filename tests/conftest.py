"""One Hypothesis profile for the whole suite: every property draws the same
examples on every run and machine, and no local example database replays a
draw of an earlier run, so a failure is reproduced by rerunning the test."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
