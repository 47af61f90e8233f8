"""Fixtures shared by every test module."""

import pytest

from gdrq import experiment


@pytest.fixture(autouse=True)
def cold_ensemble_memo():
    """Each test starts with no kept ensemble and no kept plan, so what it counts
    does not depend on the tests that ran before it."""
    experiment._ensemble.cache_clear()
    experiment._kept_plan.cache_clear()
