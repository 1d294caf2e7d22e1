"""Shared fixtures: small spaces and a seeded generator.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples and none is replayed from an earlier run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from emergence import grid_space, plain_space

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture
def line8():
    return grid_space((8,))


@pytest.fixture
def line4():
    return grid_space((4,))


@pytest.fixture
def torus8():
    return grid_space((8, 8))


@pytest.fixture
def flat4():
    return plain_space(4)


@pytest.fixture
def rng():
    return np.random.default_rng(7)
