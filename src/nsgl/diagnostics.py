"""Energy monitors, localized energies, covering lattices, stopping rules.

Everything in an :class:`EnergyReport` is a pure function of one state
snapshot, so a report stream is reproducible from any checkpoint cut.
History-dependent quantities (stopping times, the concentration-inequality
ratio, the energy-identity residual) live in :class:`RunTrace` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .grid import SpectralGrid, packed_spectra
from .operators import GLParams, gl_penalty_phys
from .stepper import SimState, StepLedger

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback

__all__ = [
    "EnergyReport",
    "CoveringSet",
    "StopState",
    "RunTrace",
    "energy_report",
    "ls_ratio",
    "energy_identity_residual",
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

    def local_maxima(self, integrand: np.ndarray) -> tuple[float, float]:
        """(max, argmax-free) masked quadrature sums over the centers."""
        flat = integrand.ravel() * self.grid.quad_weight
        sums = self.masks @ flat
        return float(np.max(sums)), sums


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
        loc_e, _ = covering.local_maxima(e_point)
        loc_g, _ = covering.local_maxima(gn2)

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


@dataclass(frozen=True)
class StopState:
    """First-hit detectors; +inf means not triggered yet."""

    delta: float
    radius: float
    horizon: float
    t_sigma1: float = math.inf
    t_sigma2: float = math.inf

    @property
    def sigma(self) -> float:
        return min(self.t_sigma1, self.t_sigma2, self.horizon)

    @property
    def triggered(self) -> bool:
        return math.isfinite(self.t_sigma1) or math.isfinite(self.t_sigma2)


def update_stops(stop: StopState, report: EnergyReport) -> StopState:
    """Advance the detectors with one report; first hits are permanent."""
    s1, s2 = stop.t_sigma1, stop.t_sigma2
    if not math.isfinite(s1) and report.local_energy_max >= stop.delta:
        s1 = report.t
    if not math.isfinite(s2) and report.min_abs_n <= 0.5:
        s2 = report.t
    if s1 == stop.t_sigma1 and s2 == stop.t_sigma2:
        return stop
    return replace(stop, t_sigma1=s1, t_sigma2=s2)


@dataclass
class RunTrace:
    """Per-step history of one path: reports plus the applied-noise ledger."""

    trace_q_eff: float = 0.0
    reports: list = field(default_factory=list)
    cum_u_dw: list = field(default_factory=list)
    cum_grad_cross: list = field(default_factory=list)
    cum_cross_sq: list = field(default_factory=list)
    stop: StopState | None = None

    def append(self, report: EnergyReport, ledger: StepLedger | None):
        prev = (self.cum_u_dw[-1], self.cum_grad_cross[-1], self.cum_cross_sq[-1]) \
            if self.reports else (0.0, 0.0, 0.0)
        add = (ledger.u_dw, ledger.grad_cross_deta, ledger.cross_sq_dt) \
            if ledger is not None else (0.0, 0.0, 0.0)
        self.reports.append(report)
        self.cum_u_dw.append(prev[0] + add[0])
        self.cum_grad_cross.append(prev[1] + add[1])
        self.cum_cross_sq.append(prev[2] + add[2])
        if self.stop is not None:
            self.stop = update_stops(self.stop, report)

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.reports])

    def field_array(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.reports])

    def int_dissipation(self) -> np.ndarray:
        """Cumulative trapezoid integral of the enstrophy."""
        t = self.times
        d = self.field_array("enstrophy_D")
        out = np.zeros_like(d)
        if len(d) > 1:
            out[1:] = np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(t))
        return out

    def max_abs_n(self) -> float:
        return float(np.max(self.field_array("max_abs_n")))


def energy_identity_residual(trace: RunTrace) -> np.ndarray:
    """Pathwise defect of the energy balance at every report time.

    residual(t) = E(t) + 2 int_0^t D - E(0) - TrQ t - 2 sum <u, dW>
                  - 2 sum <grad n, n x grad h> deta - sum |n x grad h|^2 dt

    with the stochastic sums accumulated at the applied increments.
    """
    e = trace.field_array("energy_E")
    t = trace.times
    res = e - e[0] + 2.0 * trace.int_dissipation() - trace.trace_q_eff * (t - t[0])
    res -= 2.0 * np.array(trace.cum_u_dw)
    res -= 2.0 * np.array(trace.cum_grad_cross)
    res -= np.array(trace.cum_cross_sq)
    return res


def ls_ratio(trace: RunTrace, radius: float) -> tuple[float, float, float]:
    """Empirical envelope of the interpolation inequality

        int |grad n|_{L4}^4 <= c0 * sup_{t,x} int_{B(x,R)} |grad n|^2
                              * (int |lap n|^2 + R^-2 int |grad n|^2).

    Returns (lhs, rhs-without-c0, ratio); ratio is a lower bound for c0.
    The sup is approximated by the covering max at radius 2R.
    """
    t = trace.times
    lhs = float(_trapezoid(trace.field_array("grad_n_L4") ** 4, t))
    sup_local = float(np.max(trace.field_array("local_grad_max")))
    int_lap = float(_trapezoid(2.0 * trace.field_array("lambda1"), t))
    int_grad = float(_trapezoid(trace.field_array("grad_n_sq"), t))
    rhs = sup_local * (int_lap + int_grad / radius**2)
    ratio = lhs / rhs if rhs > 0.0 else 0.0
    return lhs, rhs, ratio
