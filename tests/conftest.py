"""One hypothesis profile for every property test: derandomized, so each
run draws the same examples, and without a deadline, since one example may
build representations.  Each test sets only its own max_examples.

Every test starts with an empty record of passed contraction inputs, so no
count of verifier calls depends on which tests ran before it."""

import pytest
from hypothesis import settings

from gtlie import contraction

settings.register_profile("gtlie", derandomize=True, deadline=None)
settings.load_profile("gtlie")


@pytest.fixture(autouse=True)
def empty_record_of_passed_inputs():
    contraction._passed.clear()
