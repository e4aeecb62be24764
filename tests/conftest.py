import functools

import pytest

from permres import oracle, verify
from permres.modular import prime_fields


@pytest.fixture(autouse=True)
def _fresh_graded_quotient():
    """Each test builds its own graded quotient: one left over from an
    earlier test would hide the work (and the checks) of building its blocks
    and pieces."""
    oracle._graded_quotient.cache_clear()


@pytest.fixture(scope="session")
def field():
    return prime_fields(0, 1)[0]


@pytest.fixture(scope="session")
def field_pair():
    return prime_fields(12345, 2)


@functools.cache
def _verify_rows(suite):
    return {row["check"]: row for row in verify.run_suite(suite)}


@pytest.fixture(scope="session")
def verify_ok():
    """verify_ok(suite, check) asserts that the row `check` of
    `verify.run_suite(suite)` (seed 0, not expensive) is ok; each suite runs
    once per session."""

    def assert_ok(suite, check):
        row = _verify_rows(suite)[check]
        assert row["ok"], row["detail"]

    return assert_ok
