"""Energy monitors, localized energies, covering lattices, stopping rules.

Everything in an :class:`EnergyReport` is a pure function of one state
snapshot, so a report stream is reproducible from any checkpoint cut.
History-dependent quantities (stopping times, the concentration-inequality
ratio, the energy-identity residual) come from :class:`RunTrace`, a fixed
set of running numbers folded one report at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import SpectralGrid, packed_spectra
from .operators import GLParams, gl_penalty_phys
from .stepper import SimState, StepLedger

__all__ = [
    "EnergyReport",
    "CoveringSet",
    "RunTrace",
    "energy_report",
]


@dataclass(frozen=True)
class EnergyReport:
    """Instantaneous diagnostics of one snapshot (all norms L2 unless noted)."""

    step: int
    t: float
    energy_E: float           # |u|^2 + |grad n|^2 + 2 * potential mass
    enstrophy_D: float        # |grad u|^2 + |lap n + f(n)|^2
    gl_mass: float            # (1/4 eps^2) integral (1-|n|^2)^2
    lambda1: float            # 0.5 |lap n|^2
    lambda2: float            # 0.5 |grad u|^2
    eps_defect: float         # (1/eps) |1-|n|^2|
    eps_grad_defect: float    # (1/eps) |grad |n|^2|
    min_abs_n: float
    max_abs_n: float
    grad_n_L4: float
    u_sq: float               # |u|^2
    grad_n_sq: float          # |grad n|^2
    max_abs_u: float
    div_defect: float
    local_energy_max: float = math.nan   # max over covering centers, radius 2R
    local_grad_max: float = math.nan     # same for the |grad n|^2 integrand


def _wrap_dist_sq(grid: SpectralGrid, centers) -> np.ndarray:
    """Squared torus distance from each center (rows of an (M, 2) array) to
    every grid point, shape (M, N, N)."""
    c = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    d1 = np.abs(grid.x1[None, :] - c[:, 0:1])
    d1 = np.minimum(d1, 2.0 * np.pi - d1)
    d2 = np.abs(grid.x2[None, :] - c[:, 1:2])
    d2 = np.minimum(d2, 2.0 * np.pi - d2)
    return d1[:, :, None] ** 2 + d2[:, None, :] ** 2


@dataclass(frozen=True)
class CoveringSet:
    """Square lattice of ball centers with spacing <= R sqrt(2).

    Any radius-R ball around any point is then contained in the radius-2R
    ball of the nearest center, so a max over centers at 2R dominates the
    sup over all positions at R.  ``masks`` is the float64 0/1 matrix, one
    row of N*N grid points per center, selecting the points within 2R; it is
    float so every ``local_maxima`` call is a plain BLAS matrix-vector product.
    """

    grid: SpectralGrid
    radius: float
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    masks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r = self.radius
        if not (0.0 < r <= np.pi / 2.0):
            raise ValueError(f"stops.radius must be in (0, pi/2], got {r}")
        m = int(np.ceil(2.0 * np.pi / (r * np.sqrt(2.0))))
        line = 2.0 * np.pi * np.arange(m) / m
        centers = np.array([(a, b) for a in line for b in line])
        inside = _wrap_dist_sq(self.grid, centers) <= (2.0 * r) ** 2
        masks = inside.reshape(len(centers), -1).astype(np.float64)
        for arr, name in [(centers, "centers"), (masks, "masks")]:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_centers(self) -> int:
        return len(self.centers)

    def coverage_defect(self) -> float:
        """Exhaustive max over grid points of the distance to the nearest center.

        The lattice invariant is defect <= R: every B(x, R) then sits inside
        B(x_i, 2R) for the nearest center x_i.
        """
        dist_sq = _wrap_dist_sq(self.grid, self.centers)
        return float(np.sqrt(np.max(np.min(dist_sq, axis=0))))

    def local_maxima(self, integrand: np.ndarray) -> float:
        """Largest masked quadrature sum over the centers."""
        return float(np.max(self.masks @ (integrand.ravel() * self.grid.quad_weight)))


def energy_report(state: SimState, gl: GLParams,
                  covering: CoveringSet | None = None,
                  derivs_out: list | None = None) -> EnergyReport:
    """Diagnostics of one state.

    ``derivs_out``, when a list, receives the physical d1 n, d2 n (each
    (3, N, N)) and lap n the report computed, for a caller that needs them
    too.
    """
    g = state.grid
    u_phys, n_phys = state.u.phys, state.n.phys
    w = np.sum(n_phys**2, axis=0)
    u_spec, n_spec, w_spec = packed_spectra((state.u, state.n), w)
    # each grad w slice rides with the grad n stack beside it, so N = 64
    # packs (3 + 1, 3 + 1, 3) slices
    d1, dw1, d2, dw2, lap_n = g.to_phys_many([
        g.deriv(n_spec, 1), g.deriv(w_spec, 1), g.deriv(n_spec, 2), g.deriv(w_spec, 2),
        g.laplacian(n_spec),
    ])
    # the partials are dropped once stacked and grad w once used, so at
    # N = 128 no more arrays are alive at once than one transform per term left
    grad_n = np.stack([d1, d2])  # (2,3,N,N)
    grad_w = np.stack([dw1, dw2])
    del d1, dw1, d2, dw2
    if derivs_out is not None:
        derivs_out.extend((grad_n[0], grad_n[1], lap_n))
    eps_grad_defect = g.l2_norm_phys(grad_w) / gl.epsilon
    del grad_w
    gn2 = np.sum(grad_n**2, axis=(0, 1))

    defect = 1.0 - w
    gl_mass = g.integrate(defect**2) / (4.0 * gl.epsilon**2)
    f_pen = gl_penalty_phys(n_phys, gl.epsilon)

    u_sq = g.integrate(np.sum(u_phys**2, axis=0))
    grad_n_sq = g.integrate(gn2)
    grad_u_sq = (2.0 * np.pi) ** 2 * g.spec_sum(g.k2 * np.abs(u_spec) ** 2)
    relax_sq = g.integrate(np.sum((lap_n + f_pen) ** 2, axis=0))

    abs_n = np.sqrt(w)

    loc_e = loc_g = math.nan
    if covering is not None:
        # density of the monitored energy.  The quartic well enters with
        # weight 2: that is the unique weight for which the time derivative
        # of the total pairs exactly with -2 times the enstrophy, turning the
        # balance residual into a pure discretization error.  (The reported
        # gl_mass stays the unweighted integral.)
        e_point = np.sum(u_phys**2, axis=0) + gn2 + defect**2 / (2.0 * gl.epsilon**2)
        loc_e = covering.local_maxima(e_point)
        loc_g = covering.local_maxima(gn2)

    return EnergyReport(
        step=state.step,
        t=state.t,
        energy_E=u_sq + grad_n_sq + 2.0 * gl_mass,
        enstrophy_D=grad_u_sq + relax_sq,
        gl_mass=gl_mass,
        lambda1=0.5 * g.integrate(np.sum(lap_n**2, axis=0)),
        lambda2=0.5 * grad_u_sq,
        eps_defect=g.l2_norm_phys(defect[None]) / gl.epsilon,
        eps_grad_defect=eps_grad_defect,
        min_abs_n=float(np.min(abs_n)),
        max_abs_n=float(np.max(abs_n)),
        grad_n_L4=float(g.integrate(gn2**2) ** 0.25),
        u_sq=u_sq,
        grad_n_sq=grad_n_sq,
        max_abs_u=float(np.max(np.sqrt(np.sum(u_phys**2, axis=0)))),
        div_defect=state.u.divergence_defect(),
        local_energy_max=loc_e,
        local_grad_max=loc_g,
    )


@dataclass
class RunTrace:
    """Running summary of one path, folded one report at a time.

    It holds the start (``t0``, ``e0``), the ``last`` report, the trapezoid
    integral ``int_d`` of the enstrophy, the three applied-noise sums, the
    running sups, the four local-smallness accumulators and the two first-hit
    stopping times (+inf until hit; armed only when ``delta`` is set).
    Nothing grows with the number of reports, so a checkpoint can carry it.
    """

    trace_q_eff: float = 0.0
    delta: float | None = None    # concentration threshold of sigma1
    last: EnergyReport | None = None
    t0: float = 0.0
    e0: float = 0.0
    int_d: float = 0.0            # int_t0^t D, trapezoid
    sum_u_dw: float = 0.0
    sum_grad_cross: float = 0.0
    sum_cross_sq: float = 0.0
    sup_e: float = 0.0
    max_n: float = 0.0
    ls_l4: float = 0.0            # int |grad n|_{L4}^4, trapezoid
    ls_lap: float = 0.0           # int 2 lambda1 = int |lap n|^2, trapezoid
    ls_grad: float = 0.0          # int |grad n|^2, trapezoid
    ls_sup: float = 0.0           # sup local_grad_max
    t_sigma1: float = math.inf
    t_sigma2: float = math.inf

    def append(self, report: EnergyReport, ledger: StepLedger | None = None):
        """Fold in the next report and the ledger of the step that led to it."""
        prev = self.last
        if prev is None:
            self.t0, self.e0 = report.t, report.energy_E
        else:
            dt = report.t - prev.t
            self.int_d += 0.5 * (report.enstrophy_D + prev.enstrophy_D) * dt
            self.ls_l4 += dt * (report.grad_n_L4**4 + prev.grad_n_L4**4) / 2.0
            self.ls_lap += dt * (2.0 * report.lambda1 + 2.0 * prev.lambda1) / 2.0
            self.ls_grad += dt * (report.grad_n_sq + prev.grad_n_sq) / 2.0
        if ledger is not None:
            self.sum_u_dw += ledger.u_dw
            self.sum_grad_cross += ledger.grad_cross_deta
            self.sum_cross_sq += ledger.cross_sq_dt
        # every sup is over nonnegative values, so 0 is a neutral start; a
        # NaN local maximum (no covering) leaves ls_sup at 0
        self.sup_e = max(self.sup_e, report.energy_E)
        self.max_n = max(self.max_n, report.max_abs_n)
        self.ls_sup = max(self.ls_sup, report.local_grad_max)
        if self.delta is not None:
            if self.t_sigma1 == math.inf and report.local_energy_max >= self.delta:
                self.t_sigma1 = report.t
            if self.t_sigma2 == math.inf and report.min_abs_n <= 0.5:
                self.t_sigma2 = report.t
        self.last = report

    def sigma(self, horizon: float) -> float:
        """Stopping time so far: the first hit, else ``horizon``."""
        return min(self.t_sigma1, self.t_sigma2, horizon)

    @property
    def residual(self) -> float:
        """Pathwise defect of the energy balance at the last report.

        residual = E(t) + 2 int_t0^t D - E(t0) - TrQ (t - t0) - 2 sum <u, dW>
                   - 2 sum <grad n, n x grad h> deta - sum |n x grad h|^2 dt

        with the stochastic sums accumulated at the applied increments.
        """
        last = self.last
        res = last.energy_E - self.e0 + 2.0 * self.int_d \
            - self.trace_q_eff * (last.t - self.t0)
        return res - 2.0 * self.sum_u_dw - 2.0 * self.sum_grad_cross - self.sum_cross_sq

    def ls_ratio(self, radius: float) -> tuple[float, float, float]:
        """Empirical envelope of the interpolation inequality

            int |grad n|_{L4}^4 <= c0 * sup_{t,x} int_{B(x,R)} |grad n|^2
                                  * (int |lap n|^2 + R^-2 int |grad n|^2).

        Returns (lhs, rhs-without-c0, ratio); ratio is a lower bound for c0.
        The sup is approximated by the covering max at radius 2R.
        """
        rhs = self.ls_sup * (self.ls_lap + self.ls_grad / radius**2)
        return self.ls_l4, rhs, self.ls_l4 / rhs if rhs > 0.0 else 0.0
