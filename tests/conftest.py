"""Shared fixtures: cached grids and random band-limited field factories."""

import numpy as np
import pytest

from nsgl.grid import DirectorField, SpectralGrid, VelocityField, random_band_limited
from nsgl.operators import leray_project_spec


@pytest.fixture(scope="session")
def grid16():
    return SpectralGrid(16)


@pytest.fixture(scope="session")
def grid32():
    return SpectralGrid(32)


@pytest.fixture(scope="session")
def grid64():
    return SpectralGrid(64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def make_velocity():
    """Factory for solenoidal band-limited velocity fields."""

    def build(grid, rng, k_max=None, amplitude=1.0):
        k_max = grid.n_modes // 4 if k_max is None else k_max
        raw = VelocityField(grid, phys=random_band_limited(grid, 2, k_max, rng, amplitude))
        return VelocityField(grid, spec=leray_project_spec(grid, raw.spec))

    return build


@pytest.fixture
def make_director():
    """Factory for band-limited director fields, optionally unit length."""

    def build(grid, rng, k_max=None, amplitude=0.3, unit=False):
        k_max = grid.n_modes // 4 if k_max is None else k_max
        phys = random_band_limited(grid, 3, k_max, rng, amplitude)
        if unit:
            phys = phys + np.array([0.0, 0.0, 1.0])[:, None, None]
            phys = phys / np.sqrt(np.sum(phys * phys, axis=0))
        return DirectorField(grid, phys=phys)

    return build


@pytest.fixture
def circle_director():
    """n(x) = (cos x1, sin x1, 0): unit length, harmonic-map-like test field."""

    def build(grid):
        x1, _ = grid.meshgrid()
        phys = np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)])
        return DirectorField(grid, phys=phys)

    return build
