"""Fixtures shared by every test module."""

import numpy as np
import pytest

from gdrq import experiment


@pytest.fixture(autouse=True)
def cold_ensemble_memo():
    """Each test starts with no kept ensemble and no kept plan, so what it counts
    does not depend on the tests that ran before it."""
    experiment._ensemble.cache_clear()
    experiment._kept_plan.cache_clear()


@pytest.fixture
def seed_sequences(monkeypatch):
    """Spawn keys of every np.random.SeedSequence built during the test."""
    built = []
    original = np.random.SeedSequence

    def counting(*args, **kwargs):
        built.append(kwargs.get("spawn_key", ()))
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    return built
