"""Shared fixtures.

Grids and banks are immutable, so the expensive ones are session
scoped.  Everything else is built where it is used.

Property tests draw the same examples on every run and store none, so
the suite does not depend on a hypothesis database.
"""

import numpy as np
import pytest
from hypothesis import settings

from halfspace_spectral import make_grid
from halfspace_spectral.experiments import get_bank

settings.register_profile("deterministic", database=None, derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def grid1d():
    """Workhorse 1-D grid, fine enough for every spectral identity."""
    return make_grid(1, 16.0, 4096)


@pytest.fixture(scope="session")
def grid2d():
    return make_grid(2, 8.0, 256)


@pytest.fixture(scope="session")
def bank1d(grid1d):
    return get_bank(grid1d)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260818)
