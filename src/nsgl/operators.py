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
    """Remove the gradient part mode-by-mode and zero the mean.

    The gradient part is ``(k * kdotu) / k2_safe``, multiplied before it is
    divided: ``k * (kdotu / k2_safe)`` rounds differently.
    """
    kx, ky, k2 = grid.kx_c, grid.ky_c, grid.k2_safe
    kdotu = kx * u_spec[0] + ky * u_spec[1]
    out = np.empty((2, *kdotu.shape), kdotu.dtype)
    np.subtract(u_spec[0], kx * kdotu / k2, out=out[0])
    np.subtract(u_spec[1], ky * kdotu / k2, out=out[1])
    out[:, 0, 0] = 0.0
    return out


def grad_pair(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    """Physical partial derivatives (d1 f, d2 f) of a spectral component
    stack, as one (2, C, N, N) array."""
    return grid.to_phys(grid.grad_c * spec)


def _stress_phys(d1, d2, out) -> np.ndarray:
    """The three distinct entries t11, t12, t22 of grad(n) (.) grad(n), into out[:3]."""
    for k, (a, b) in enumerate(((d1, d1), (d1, d2), (d2, d2))):
        (a * b).sum(axis=0, out=out[k])
    return out


def _stress_div(grid, t) -> np.ndarray:
    """Projected divergence of the stress from its spectral entries
    (t11, t12, t22), dealiased here: (d1 t11 + d2 t12, d1 t12 + d2 t22)."""
    t = grid.dealias(t)
    div = grid.grad_c[0] * t[:2]
    div += grid.grad_c[1] * t[1:]
    return leray_project_spec(grid, div)


def stress_div_spec(grid, d1, d2) -> np.ndarray:
    """Projected divergence of grad(n) (.) grad(n) from the physical partials of n."""
    return _stress_div(grid, grid.to_spec(_stress_phys(d1, d2, np.empty((3, *d1.shape[1:])))))


def convect_spec(grid: SpectralGrid, u_phys: np.ndarray, f_spec: np.ndarray) -> np.ndarray:
    """(u . grad) f for any component stack f, dealiased, in spectral space."""
    d1, d2 = grad_pair(grid, f_spec)
    return grid.dealias(grid.to_spec(u_phys[0] * d1 + u_phys[1] * d2))


def coupling_drift_spec(grid: SpectralGrid, u_spec: np.ndarray, n_spec: np.ndarray):
    """Drift of the exchange stage: (-P div(u (x) u + grad n (.) grad n), -(u.grad) n).

    The velocity transport is taken in conservative form: for a solenoidal u
    inside the 2/3 band, the dealiased div(u (x) u) equals the dealiased
    (u.grad) u to roundoff, so u's convection and the Ericksen stress are one
    symmetric tensor sigma with a single divergence and a single projection.
    Every u that reaches the exchange stage meets that precondition: the
    initial velocity, the noise increments and the exchange output are all
    dealiased and solenoidal.  n is not band-limited, so its transport keeps
    the advective form.  Each direction is one stacked transform stage: u
    and grad n go back to the grid in place (8 slices), and the three entries
    of sigma and the n transport come forward together (6 slices).
    """
    back = np.empty((8, *u_spec.shape[1:]), np.complex128)
    back[:2] = u_spec
    np.multiply(grid.grad_c, n_spec, out=back[2:].reshape(2, *n_spec.shape))
    phys = grid.to_phys(back, in_place=True)
    u_phys, dn1, dn2 = phys[:2], phys[2:5], phys[5:]
    forward = _stress_phys(dn1, dn2, np.empty((6, *phys.shape[1:])))
    forward[0] += u_phys[0] * u_phys[0]
    forward[1] += u_phys[0] * u_phys[1]
    forward[2] += u_phys[1] * u_phys[1]
    np.multiply(u_phys[0], dn1, out=forward[3:])
    forward[3:] += u_phys[1] * dn2
    del back, phys, u_phys, dn1, dn2
    spec = grid.to_spec(forward)
    del forward
    return -_stress_div(grid, spec[:3]), -grid.dealias(spec[3:])


def cross3(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cross product of (3, ...) component stacks, into ``out`` when given."""
    if out is None:
        out = np.empty(np.broadcast(a, b).shape, np.result_type(a, b))
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out


def gl_penalty_phys(n_phys: np.ndarray, epsilon: float) -> np.ndarray:
    return (1.0 - (n_phys * n_phys).sum(axis=0)) * n_phys / epsilon**2
