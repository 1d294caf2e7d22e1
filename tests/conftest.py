"""Shared fixtures, small spaces and a seeded generator, and helpers that
draw one field and build a central difference.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples and none is replayed from an earlier run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from emergence import (grid_space, make_discrete_operator, plain_space,
                       scale)
from emergence.operator_core import subtract

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def sample_field(space, rng: np.random.Generator) -> np.ndarray:
    """One field of ``space`` from ``rng``'s standard normals, a block of
    one: the same draws and bits as the block's first row."""
    return space.fields_from_normals(rng.standard_normal((1, space.normals)))[0]


def central_difference(space, axis: int):
    """``(phi(x + e) - phi(x - e)) / 2h`` along ``axis``, from two shifts:
    a first-order, antisymmetric stencil."""
    forward, backward = (make_discrete_operator(space, "shift", axis=axis,
                                                step=step)
                         for step in (1, -1))
    return scale(0.5 / space.geometry.spacing[axis],
                 subtract(forward, backward))


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
