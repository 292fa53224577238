"""Tier-1 hypothesis runs are reproducible: every property test draws the
same examples on every run (`derandomize`), and no example database
carries failures from one run into the next.  Each test keeps its own
`max_examples` and `deadline`."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
