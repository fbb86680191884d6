"""One hypothesis profile for every property test: derandomized, so each
run draws the same examples, and without a deadline, since one example may
build representations.  Each test sets only its own max_examples."""

from hypothesis import settings

settings.register_profile("gtlie", derandomize=True, deadline=None)
settings.load_profile("gtlie")
