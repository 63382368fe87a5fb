"""Spatial operators: the Leray projection and the one exchange drift kernel.

Every operator is an array kernel on physical (C, N, N) or half-spectrum
(C, N, N/2+1) component stacks.  The transport and the elastic stress exist
only inside ``coupling_drift_spec``, the kernel the step runs; the identity
suite in ``nsgl.checks`` evaluates that kernel.  All quadratic
nonlinearities are evaluated pointwise on the collocation grid and dealiased
by the 2/3 rule; derivatives act in spectral space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid

__all__ = [
    "GLParams",
    "leray_project_spec",
    "grad_pair",
    "coupling_drift_spec",
    "cross3",
]


@dataclass(frozen=True)
class GLParams:
    """Relaxation parameters: penalty f(n) = (1/epsilon^2)(1-|n|^2) n."""

    epsilon: float

    def __post_init__(self):
        # the penalty and the report divide by epsilon^2, so it must not underflow
        if not (self.epsilon > 0.0 and self.epsilon**2 > 0.0):
            raise ValueError(f"gl.epsilon must be > 0 with a nonzero square, got {self.epsilon}")


# -- array kernels ------------------------------------------------------------

def leray_project_spec(grid: SpectralGrid, u_spec: np.ndarray, out=None) -> np.ndarray:
    """Remove the gradient part mode-by-mode and zero the mean, into ``out``
    when given (it may be ``u_spec``).

    The gradient part is ``(k * kdotu) / k2_safe``, multiplied before it is
    divided: ``k * (kdotu / k2_safe)`` rounds differently.  Both components
    are taken at once against the full-size table ``grid.k_c``: k.u is one
    product and the sum of its two rows, the gradient part one product
    divided in place, and the subtraction one call, so no operand
    broadcasts along an inner axis.  In place it traces 5 spectrum slices
    at N <= 64, where numpy buffers k.u and ``k2_safe`` broadcast over the
    component axis, and 3 at N = 128; one component at a time traced 3.
    """
    prod = grid.k_c * u_spec
    kdotu = np.add(prod[0], prod[1])
    grad = np.multiply(grid.k_c, kdotu, out=prod)
    grad /= grid.k2_safe
    out = np.subtract(u_spec, grad, out=out)
    out[:, 0, 0] = 0.0
    return out


def grad_pair(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    """Physical partial derivatives (d1 f, d2 f) of a spectral component
    stack, as one (2, C, N, N) array."""
    return grid.to_phys(grid.grad_c * spec)


def coupling_drift_spec(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    """Minus the drift of the exchange stage on the (5, N, N/2+1) stack of u
    then n: r = (P div(u (x) u + grad n (.) grad n), (u.grad) n), drift = -r.

    The velocity transport is taken in conservative form: for a solenoidal u
    inside the 2/3 band, the dealiased div(u (x) u) equals the dealiased
    (u.grad) u to roundoff, so u's convection and the Ericksen stress are one
    symmetric tensor sigma with a single divergence and a single projection.
    Every u that reaches the exchange stage meets that precondition: the
    initial velocity, the noise increments and the exchange output are all
    dealiased and solenoidal.  n is not band-limited, so its transport keeps
    the advective form.  Each direction is one stacked transform stage: u
    and grad n go back to the grid in place (8 slices), and the three entries
    of sigma and the n transport come forward together (6 slices).  The
    inverse stack is laid out as (d1 n, u1; d2 n, u2), so that sigma_12 is
    one product summed over its 4 components and sigma_11, sigma_22 one
    square summed over them.

    This is the package's only transport and stress kernel: gate 1 and
    ``nsgl check`` evaluate it for the skew transport of u and n and for the
    stress/transport energy pairing.
    """
    back = np.empty((2, 4, *spec.shape[1:]), np.complex128)
    for i in range(2):  # a contiguous out: a strided one makes numpy buffer the product
        np.multiply(grid.grad_c[i], spec[2:], out=back[i, :3])
    back[:, 3] = spec[:2]
    a = grid.to_phys(back, in_place=True)
    forward = np.empty((6, *a.shape[2:]))
    np.multiply(a[0], a[1], out=forward[2:]).sum(axis=0, out=forward[1])
    np.multiply(a[0, 3], a[0, :3], out=forward[3:])
    forward[3:] += a[1, 3] * a[1, :3]
    np.square(a, out=a).sum(axis=1, out=forward[0:3:2])
    del back, a
    t = grid.to_spec(forward)
    del forward
    r = np.empty(spec.shape, np.complex128)
    sigma = t[:3]
    sigma *= grid.dealias_c
    np.multiply(grid.grad_c[0], sigma[:2], out=r[:2])  # d1 sigma_11, d1 sigma_12
    r[:2] += grid.grad_c[1] * sigma[1:]  # + d2 sigma_12, d2 sigma_22
    leray_project_spec(grid, r[:2], out=r[:2])
    np.multiply(t[3:], grid.dealias_c, out=r[2:])
    return r


def cross3(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cross product of (3, ...) component stacks, into ``out`` when given."""
    if out is None:
        out = np.empty(np.broadcast(a, b).shape, np.result_type(a, b))
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out

