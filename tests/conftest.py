"""One Hypothesis profile for every ``@given`` test, so tier-1 is deterministic.

``derandomize=True`` seeds each test's examples from the test itself, so
every run tries the same examples, and Hypothesis keeps no example
database.  A derandomized example that fails is a bug in the code under
test, found again on every run.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
