"""One hypothesis profile for every property test of the suite.

Runs are derandomized and keep no example database, so each property test
draws the same examples on every run and machine; no deadline applies,
since the first call of a search can be slow on a loaded host.  Each test
sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("osclass", derandomize=True, database=None, deadline=None)
settings.load_profile("osclass")
