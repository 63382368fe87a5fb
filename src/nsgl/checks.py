"""Operator identity self-checks: the suite behind `nsgl check` and gate 1.

Each check evaluates a structural identity of the kernels the step runs, or
of the Leray projection and the director's bilaplacian, on random
band-limited fields, where the identity holds to roundoff, and reports its
worst relative residual over the samples against a fixed tolerance.  The
transport and stress identities read the exchange drift
``coupling_drift_spec``; the penalty and rotation ones the exact reaction
and rotation maps ``gl_reaction_phys`` and ``rotate_phys``.  The
quartic-well reaction map is also checked against the one RK4 oracle for
the logistic equation of |n|^2, which gate 2 also uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (SpectralGrid, grad_pair, leray_project_spec, random_band_limited,
                   sobolev_norm)
from .stepper import coupling_drift_spec, cross3, gl_reaction_phys, rotate_phys

__all__ = [
    "CheckResult",
    "run_identity_checks",
    "bilaplacian_identity_residual",
]

# check name -> pass bound on its worst residual, in report order.  The
# rotation is a pointwise isometry, so it is held to roundoff; the reaction
# map is bounded by its RK4 reference's own error.
_TOLERANCES = {
    **dict.fromkeys(["leray_idempotent", "leray_self_adjoint", "leray_kills_gradients",
                     "advect_u_skew", "advect_n_skew", "stress_transport_cancel",
                     "penalty_orthogonal", "bilaplacian_identity"], 1e-8),
    "rotation_isometry": 1e-12,
    "gl_map_vs_ode": 1e-10,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tol


def _rk4_logistic(y0: np.ndarray, a: np.ndarray, n_sub: int) -> np.ndarray:
    """Reference integration of y' = a y (1 - y) over unit time.

    With y = |n|^2 this is the quartic-well reaction at rate a = 2 dt/eps^2.
    """
    y = np.array(y0, dtype=np.float64)
    hs = 1.0 / n_sub

    def f(v):
        return a * v * (1.0 - v)

    for _ in range(n_sub):
        k1 = f(y)
        k2 = f(y + 0.5 * hs * k1)
        k3 = f(y + 0.5 * hs * k2)
        k4 = f(y + hs * k3)
        y = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _gl_map_residual() -> float:
    """Closed-form reaction map against the RK4 oracle on a (y0, rate) sweep."""
    y0 = np.linspace(0.0, 1.5, 31)
    rates = np.linspace(0.0, 5.0, 21)  # dt / eps^2
    y_grid = np.tile(y0[:, None], (1, len(rates)))
    a_grid = np.tile(2.0 * rates[None, :], (len(y0), 1))
    y_ref = _rk4_logistic(y_grid, a_grid, 16384)
    worst = 0.0
    for j, r in enumerate(rates):
        n_in = np.zeros((3, len(y0), 1))
        n_in[0, :, 0] = np.sqrt(y0)
        n_out = gl_reaction_phys(n_in, float(r), 1.0)
        y_map = np.sum(n_out * n_out, axis=0)[:, 0]
        worst = max(worst, float(np.max(np.abs(y_map - y_ref[:, j]))))
    return worst


def bilaplacian_identity_residual(grid: SpectralGrid, d: np.ndarray) -> float:
    """L2 residual, for the grid values d of a director (3, N, N), of
    d . lap^2 d = 0.5 lap^2 |d|^2 - 4 grad d . grad lap d - 2 |hess d|^2 - |lap d|^2.

    Exact (to roundoff) when d is band-limited to |k_i| < N/4: quadratic
    products then stay strictly below the unpaired Nyquist line N/2 that
    differentiation masks out.
    """
    g = grid
    spec = g.to_spec(d)
    lap = g.laplacian(spec)
    bilap = g.laplacian(lap)
    lhs = np.sum(d * g.to_phys(bilap), axis=0)

    mag2 = np.sum(d**2, axis=0)
    term_sq = 0.5 * g.to_phys(g.laplacian(g.laplacian(g.to_spec(mag2))))

    term_mix = 4.0 * np.sum(grad_pair(g, spec) * grad_pair(g, lap), axis=(0, 1))

    hess = np.concatenate([grad_pair(g, g.deriv(spec, 1)), grad_pair(g, g.deriv(spec, 2))])
    term_hess = 2.0 * np.sum(hess**2, axis=(0, 1))

    lap_phys = g.to_phys(lap)
    term_lap = np.sum(lap_phys**2, axis=0)

    residual = lhs - (term_sq - term_mix - term_hess - term_lap)
    return g.l2_norm_phys(residual[None, :, :])


def run_identity_checks(n_modes: int = 64, samples: int = 32,
                        seed: int = 99) -> list[CheckResult]:
    """Randomized operator identities on band-limited fields.

    The band is kept at N // 10 so cubic products still integrate exactly on
    the grid; every residual below is then pure floating-point noise.
    Raises ValueError for a grid size SpectralGrid refuses, fewer than one
    sample, or a negative seed.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    grid = SpectralGrid(n_modes)
    k_max = max(2, n_modes // 10)
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(_TOLERANCES, 0.0)
    tiny = 1e-300

    def note(name, residual):
        worst[name] = max(worst[name], residual)

    for _ in range(samples):
        w_spec = grid.to_spec(random_band_limited(grid, 2, k_max, rng))
        v_spec = grid.to_spec(random_band_limited(grid, 2, k_max, rng))
        n_phys = random_band_limited(grid, 3, k_max, rng)
        n_spec = grid.to_spec(n_phys)
        h_phys = random_band_limited(grid, 3, k_max, rng)
        phi_spec = grid.to_spec(random_band_limited(grid, 1, k_max, rng)[0])

        pw = leray_project_spec(grid, w_spec)  # also the solenoidal u below
        ppw = leray_project_spec(grid, pw)
        note("leray_idempotent", grid.l2_norm_spec(ppw - pw) / (grid.l2_norm_spec(pw) + tiny))

        pv = leray_project_spec(grid, v_spec)
        lhs = grid.l2_inner_spec(pw, v_spec)
        rhs = grid.l2_inner_spec(w_spec, pv)
        scale = grid.l2_norm_spec(w_spec) * grid.l2_norm_spec(v_spec) + tiny
        note("leray_self_adjoint", abs(lhs - rhs) / scale)

        gspec = grid.grad_c[:, 0] * phi_spec
        note("leray_kills_gradients", grid.l2_norm_spec(leray_project_spec(grid, gspec))
             / (grid.l2_norm_spec(gspec) + tiny))

        # the exchange drift r = (P div(u (x) u + grad n (.) grad n), (u.grad) n)
        r_u = coupling_drift_spec(grid, np.concatenate([pw, np.zeros_like(n_spec)]))[:2]
        pair = grid.l2_inner_spec(r_u, pw)
        scale = grid.l2_norm_spec(r_u) * grid.l2_norm_spec(pw) + tiny
        note("advect_u_skew", abs(pair) / scale)

        r = coupling_drift_spec(grid, np.concatenate([pw, n_spec]))
        pair = grid.l2_inner_spec(r[2:], n_spec)
        scale = grid.l2_norm_spec(r[2:]) * grid.l2_norm_spec(n_spec) + tiny
        note("advect_n_skew", abs(pair) / scale)

        # <P div(u (x) u), u> = 0 leaves the stress pairing in <r_u, u>
        a = grid.l2_inner_spec(r[:2], pw)
        b = grid.l2_inner_spec(r[2:], grid.laplacian(n_spec))
        note("stress_transport_cancel", abs(a - b) / (abs(a) + abs(b) + tiny))

        # the reaction's move over unit time at eps = 1 is along n
        fpen = gl_reaction_phys(n_phys, 1.0, 1.0) - n_phys
        nxh = cross3(n_phys, h_phys)
        pair = grid.integrate((fpen * nxh).sum(axis=0))
        scale = grid.l2_norm_phys(fpen) * grid.l2_norm_phys(nxh) + tiny
        note("penalty_orthogonal", abs(pair) / scale)

        res = bilaplacian_identity_residual(grid, n_phys)
        scale = 1.0 + sobolev_norm(grid, n_spec, 4.0, homogeneous=False) ** 2
        note("bilaplacian_identity", res / scale)

        mag = np.sqrt(np.sum(h_phys**2, axis=0))
        unit = h_phys / np.where(mag > 0.0, mag, 1.0)
        d_eta = float(rng.uniform(-2.0, 2.0))
        rotated = rotate_phys(n_phys, unit, mag, d_eta)
        before = np.sqrt(np.sum(n_phys ** 2, axis=0))
        after = np.sqrt(np.sum(rotated ** 2, axis=0))
        note("rotation_isometry",
             float(np.max(np.abs(after - before))) / (float(np.max(before)) + tiny))

    worst["gl_map_vs_ode"] = _gl_map_residual()
    return [CheckResult(name, worst[name], tol) for name, tol in _TOLERANCES.items()]
