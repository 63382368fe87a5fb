"""Shared fixtures: cached grids and random band-limited field factories.

A velocity factory gives a (2, N, N/2+1) half spectrum, a director factory
(3, N, N) grid values: the arrays a ``SimState`` stacks."""

import numpy as np
import pytest

from nsgl.grid import SpectralGrid, leray_project_spec, random_band_limited
from nsgl.stepper import SimState


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
    """Factory for the half spectra of solenoidal band-limited velocities."""

    def build(grid, rng, k_max=None, amplitude=1.0):
        k_max = grid.n_modes // 4 if k_max is None else k_max
        raw = grid.to_spec(random_band_limited(grid, 2, k_max, rng, amplitude))
        return leray_project_spec(grid, raw)

    return build


@pytest.fixture
def make_director():
    """Factory for the grid values of band-limited directors, optionally
    unit length."""

    def build(grid, rng, k_max=None, amplitude=0.3, unit=False):
        k_max = grid.n_modes // 4 if k_max is None else k_max
        phys = random_band_limited(grid, 3, k_max, rng, amplitude)
        if unit:
            phys = phys + np.array([0.0, 0.0, 1.0])[:, None, None]
            phys = phys / np.sqrt(np.sum(phys * phys, axis=0))
        return phys

    return build


@pytest.fixture
def circle_director():
    """n(x) = (cos x1, sin x1, 0): unit length, harmonic-map-like test field."""

    def build(grid):
        x1, _ = grid.meshgrid()
        return np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)])

    return build


@pytest.fixture(scope="session")
def make_state():
    """Factory for the state of a velocity given by its half spectra
    (2, N, N/2+1) and a director given by its grid values (3, N, N): the
    stacks hold those arrays as given, beside u's ``to_phys`` and n's
    ``to_spec``."""

    def build(grid, u_spec, n_phys, t=0.0, step=0):
        spec = np.concatenate([u_spec, grid.to_spec(n_phys)])
        phys = np.concatenate([grid.to_phys(u_spec), n_phys])
        return SimState(t=t, step=step, grid=grid, spec=spec, phys=phys)

    return build
