"""Shared fixtures: the reference momentum grid and oracle embedding."""
# The package pins BLAS to one thread on import, which holds only if numpy
# has not loaded BLAS yet; so the package comes before numpy here, and every
# in-process test runs with the pins a CLI run has.
import floquet_forge
import numpy as np
import pytest

from floquet_forge import BandGrid


def embed_sector(dense, basis):
    """Restrict a full-space oracle matrix to a SectorBasis' rows/columns.

    Oracle dense indices coincide with occupation bit patterns, so the
    sector block is a plain fancy-index pull.
    """
    idx = basis.states.astype(np.intp)
    return dense[np.ix_(idx, idx)]


@pytest.fixture(scope="session")
def paper_grid():
    """64x64 two-band grid at the reference semiconductor parameters."""
    return BandGrid.square(64, 64, 3.7, 0.05, -0.15, 1.6, 0.8)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
