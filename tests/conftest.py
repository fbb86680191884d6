"""One hypothesis profile for every property test: derandomized, so each
run draws the same examples, and without a deadline, since one example may
build representations.  Each test sets only its own max_examples.

Every test starts with an empty contraction record (the inputs that passed
a precondition check and the contracted algebras that passed every check,
keyed by the digests the read-only inputs cache), so no count of verifier
calls depends on which tests ran before it.  A digest cached on a shared
input, such as a module fixture's grading, stays valid across tests: the
input cannot change."""

import pytest
from hypothesis import settings

from gtlie import contraction

settings.register_profile("gtlie", derandomize=True, deadline=None)
settings.load_profile("gtlie")


@pytest.fixture(autouse=True)
def empty_contraction_record():
    contraction._passed.clear()
