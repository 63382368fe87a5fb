"""Spatial operators: projection, transport, elastic stress, relaxation terms.

Every operator is an array kernel on physical (C, N, N) or half-spectrum
(C, N, N/2+1) component stacks.  All quadratic/cubic nonlinearities are
evaluated pointwise on the collocation grid and dealiased by the 2/3 rule;
derivatives act in spectral space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid

__all__ = [
    "GLParams",
    "leray_project_spec",
    "grad_pair",
    "stress_div_spec",
    "convect_spec",
    "coupling_drift_spec",
    "cross3",
    "gl_penalty_phys",
]


@dataclass(frozen=True)
class GLParams:
    """Relaxation parameters: penalty f(n) = (1/epsilon^2)(1-|n|^2) n."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValueError(f"gl.epsilon must be > 0, got {self.epsilon}")


# -- array kernels ------------------------------------------------------------

def leray_project_spec(grid: SpectralGrid, u_spec: np.ndarray) -> np.ndarray:
    """Remove the gradient part mode-by-mode and zero the mean."""
    kdotu = grid.kx * u_spec[0] + grid.ky * u_spec[1]
    out = np.stack([u_spec[0] - grid.kx * kdotu / grid.k2_safe,
                    u_spec[1] - grid.ky * kdotu / grid.k2_safe])
    out[:, 0, 0] = 0.0
    return out


def grad_pair(grid: SpectralGrid, spec: np.ndarray):
    """Physical partial derivatives (d1 f, d2 f) of a spectral component stack."""
    return tuple(grid.to_phys_many([grid.deriv(spec, 1), grid.deriv(spec, 2)]))


def _transport_phys(u_phys, d1, d2) -> np.ndarray:
    """(u . grad) f on the grid from the physical partials of f."""
    return u_phys[0] * d1 + u_phys[1] * d2


def _stress_phys(d1, d2) -> list:
    """The three distinct entries t11, t12, t22 of grad(n) (.) grad(n)."""
    return [np.sum(d1 * d1, axis=0), np.sum(d1 * d2, axis=0), np.sum(d2 * d2, axis=0)]


def _stress_div(grid, t11, t12, t22) -> np.ndarray:
    """Projected divergence of the stress from its spectral entries, dealiased here."""
    t11, t12, t22 = (grid.dealias(t) for t in (t11, t12, t22))
    div = np.stack([
        grid.deriv(t11, 1) + grid.deriv(t12, 2),
        grid.deriv(t12, 1) + grid.deriv(t22, 2),
    ])
    return leray_project_spec(grid, div)


def stress_div_spec(grid, d1, d2) -> np.ndarray:
    """Projected divergence of grad(n) (.) grad(n) from the physical partials of n."""
    return _stress_div(grid, *grid.to_spec_many(_stress_phys(d1, d2)))


def convect_spec(grid: SpectralGrid, u_phys: np.ndarray, f_spec: np.ndarray) -> np.ndarray:
    """(u . grad) f for any component stack f, dealiased, in spectral space."""
    return grid.dealias(grid.to_spec(_transport_phys(u_phys, *grad_pair(grid, f_spec))))


def coupling_drift_spec(grid: SpectralGrid, u_spec: np.ndarray, n_spec: np.ndarray):
    """Drift of the exchange stage: (-P(u.grad u) - P div stress, -(u.grad) n).

    grad n is transformed once and shared by the stress and the transport.
    Each direction is one packed transform stage: u, grad u and grad n go
    back to the grid together, and the u transport, the three stress
    entries and the n transport come forward together.
    """
    u_phys, du1, du2, dn1, dn2 = grid.to_phys_many([
        u_spec, grid.deriv(u_spec, 1), grid.deriv(u_spec, 2),
        grid.deriv(n_spec, 1), grid.deriv(n_spec, 2),
    ])
    # drop each partial after its last product: at N = 128, where nothing is
    # packed, this keeps the most arrays alive at once no higher than one
    # transform per term did
    forward = [_transport_phys(u_phys, du1, du2)]
    del du1, du2
    n_transport = _transport_phys(u_phys, dn1, dn2)
    del u_phys
    forward += [*_stress_phys(dn1, dn2), n_transport]
    del dn1, dn2, n_transport
    u_conv, t11, t12, t22, n_conv = grid.to_spec_many(forward)
    du_spec = -(grid.dealias(u_conv) + _stress_div(grid, t11, t12, t22))
    du_spec = leray_project_spec(grid, du_spec)
    dn_spec = -grid.dealias(n_conv)
    return du_spec, dn_spec


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of (3, ...) component stacks."""
    return np.stack([
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ])


def gl_penalty_phys(n_phys: np.ndarray, epsilon: float) -> np.ndarray:
    return (1.0 - np.sum(n_phys * n_phys, axis=0)) * n_phys / epsilon**2
