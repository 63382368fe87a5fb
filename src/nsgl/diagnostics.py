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

from .grid import SpectralGrid
from .stepper import GLParams, SimState, StepLedger

__all__ = ["EnergyReport", "CoveringSet", "RunTrace", "energy_report"]


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


# the state monitors: what ``run`` and ``converge`` stream and stop on, but a
# ``RunTrace`` without stop detectors never reads
MONITORS = ("eps_defect", "eps_grad_defect", "min_abs_n", "max_abs_u", "div_defect")


@dataclass(frozen=True)
class CoveringSet:
    """Square lattice of ball centers with spacing <= R sqrt(2).

    Any radius-R ball around any point is then contained in the radius-2R
    ball of the nearest center, so a max over centers at 2R dominates the
    sup over all positions at R.

    On each grid row (fixed x1) the points within 2R of a center form one
    arc of consecutive x2 indices, empty, the full row, or wrapping across
    x2 = 0, because the distance to the center only grows away from its
    nearest point in x2.  ``arcs`` (shape (3, M, N)) indexes each arc into
    the flattened row prefix sums of ``local_maxima`` (N + 1 entries per
    row, the first 0) as (hi, lo, wrap): the arc's sum is ``prefix[hi] -
    prefix[lo] + prefix[wrap]``, where ``wrap`` is the row total's entry
    for an arc that wraps and the row's leading 0 otherwise.  Lattice and
    grid are each one line times itself, x1 and x2 alike, so the arcs follow
    in O(M N) memory from ``dsq``, shape (m, N), m^2 = M: the squared
    wrapped distance from each lattice line to each grid line.

    The radius must be at least the grid spacing ``dx = 2 pi / N``: a ball
    of radius 2R then holds about a dozen grid points (9 to 14 at N = 64).
    A smaller one is refused at once, since the lattice grows as R^-2.
    """

    grid: SpectralGrid
    radius: float
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    dsq: np.ndarray = field(init=False, repr=False, compare=False)
    arcs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        r, dx, n = self.radius, self.grid.dx, self.grid.n_modes
        if not (dx <= r <= np.pi / 2.0):
            raise ValueError(f"stops.radius must be in [2 pi / N, pi/2] = [{dx:.6g}, "
                             f"{np.pi / 2.0:.6g}] at N = {n}, got {r}")
        m = int(np.ceil(2.0 * np.pi / (r * np.sqrt(2.0))))
        line = 2.0 * np.pi * np.arange(m) / m
        d = np.abs(self.grid.x1[None, :] - line[:, None])
        dsq, r2 = np.minimum(d, 2.0 * np.pi - d) ** 2, (2.0 * r) ** 2
        # center (a, b) holds point (i, j) when dsq[a, i] + dsq[b, j] <= r2.
        # On axes (a, i, b) an arc spans offsets -lo..hi around the grid line
        # k nearest line[b]; both ends are guessed from its half-width, off
        # by at most one, and settled by that comparison, shrinking first:
        # extending first can run across a one-point gap.
        row, k = dsq[:, :, None], np.argmin(dsq, axis=1)
        q = (line / dx - k + n / 2) % n - n / 2  # line[b] - x[k] in units of dx
        half = np.sqrt(np.maximum(r2 - row, 0.0)) / dx

        def inside(offset):
            return row + dsq[np.arange(m), (k + offset) % n] <= r2

        sign = np.array([1, -1])[:, None, None, None]  # the hi and lo ends
        ends = np.maximum(np.floor(sign * q + half).astype(np.int64), 0)
        ends -= ~inside(sign * ends)
        ends += inside(sign * (ends + 1))
        count = np.minimum(ends.sum(axis=0) + 1, n) * inside(0)
        start = np.where((0 < count) & (count < n), (k - ends[1]) % n, 0)
        count, start = (a.transpose(0, 2, 1).reshape(m * m, n) for a in (count, start))
        end = start + count
        wrap = np.where(end > n, n, 0)
        arcs = np.arange(n) * (n + 1) + np.stack([end - wrap, start, wrap])
        centers = np.column_stack([np.repeat(line, m), np.tile(line, m)])
        for name, arr in [("centers", centers), ("dsq", dsq), ("arcs", arcs)]:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_centers(self) -> int:
        return len(self.centers)

    def coverage_defect(self) -> float:
        """Exhaustive max over grid points of the distance to the nearest center.

        The lattice invariant is defect <= R: every B(x, R) then sits inside
        B(x_i, 2R) for the nearest center x_i.  Rounded addition is monotone,
        so the min over centers of dsq[a, i] + dsq[b, j] sums two minima.
        """
        return float(np.sqrt(2.0 * np.max(np.min(self.dsq, axis=0))))

    def local_maxima(self, integrand: np.ndarray) -> float:
        """Largest quadrature sum over the points within 2R of a center."""
        n = self.grid.n_modes
        prefix = np.zeros((n, n + 1))
        np.cumsum(integrand, axis=1, out=prefix[:, 1:])
        sums, lo, wrap = prefix.take(self.arcs)
        sums -= lo
        sums += wrap
        return float(sums.sum(axis=1).max()) * self.grid.quad_weight


def _stack(arrays):
    """One (P, ...) array of P equal-shape arrays; a group of one is a view."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def energy_report(state, gl, covering: CoveringSet | None = None, monitors: bool = True):
    """Diagnostics of one state, or of every state of a group.

    ``state`` is a SimState, or a sequence of P states on one grid (a group
    of paths), with ``gl`` one GLParams or one per state.  A group is
    reported in one pass over a leading path axis: its derivative stack
    goes back to the grid as one transform, and every reduction runs over
    each path's own trailing axes, so each report has the bits of a call on
    its state alone.  Returns an EnergyReport, or a list of them in the
    order of the states.

    The integrals of |grad u|^2, |grad n|^2 and |grad |n|^2|^2 are
    Parseval sums over half spectra (``SpectralGrid.grad_weight``): u's and
    n's, which a state carries, and that of ``w = |n|^2``.  Only lap n, and
    with a covering d1 n and d2 n, go back to the grid; their grid values
    are squared in place once read, and the report hands none of them out.
    The covering's local maxima and ``grad_n_L4`` are the pointwise readers
    of |grad n|^2, so without a covering ``grad_n_L4`` is NaN, as the local
    maxima are: the local-smallness integral it feeds needs the covering.
    ``monitors=False`` leaves the fields ``MONITORS`` names at NaN, and so
    takes no transform of ``w``: a report for a caller that folds only the
    balance (``RunTrace`` without stop detectors).  Every other field keeps
    its bits.
    """
    group = not isinstance(state, SimState)
    states = list(state) if group else [state]
    gls = list(gl) if group and not isinstance(gl, GLParams) else [gl] * len(states)
    if len(gls) != len(states):
        raise ValueError(f"energy_report got {len(gls)} GLParams for {len(states)} states")
    g = states[0].grid
    qw, paths = g.quad_weight, len(states)
    # each path's epsilon^2, shaped to divide a (P, ...) stack path by path
    eps2 = np.array([x.epsilon**2 for x in gls])[:, None, None]

    def integrals(x):  # per path: g.integrate of its own (..., N, N) part
        return [v * qw for v in x.sum(axis=tuple(range(1, x.ndim))).tolist()]

    def grad_integrals(c):  # per path: int |grad f|^2 of its (..., N, N/2+1) spectra
        sums = (g.grad_weight * abs(c) ** 2).sum(axis=tuple(range(1, c.ndim)))
        return [(2.0 * np.pi) ** 2 * v for v in sums.tolist()]

    # a stepped state carries its spectra, so only w goes forward, for the
    # monitors.  One stack goes back in place, per path (d1 n, d2 n,) lap n.
    # It is the report's memory peak, so the stacked spectra are dropped
    # before it, and the grid values stacked after it
    spec = _stack([s.spec for s in states])
    kinds = g.dlap_c if covering is not None else g.dlap_c[2:]
    back = np.empty((paths, len(kinds), 3, *g.spec_shape), np.complex128)
    # one multiply per path and derivative kind, into its contiguous (3, N,
    # N/2+1) part of back: a strided operand or out makes numpy buffer it
    for s, d in zip(states, back):
        for op, d_kind in zip(kinds, d):
            np.multiply(op, s.n_spec, out=d_kind)
    grad_u_sq, grad_n_sq = grad_integrals(spec[:, :2]), grad_integrals(spec[:, 2:])
    del spec
    w = np.empty((paths, g.n_modes, g.n_modes))
    for s, w_path in zip(states, w):
        np.square(s.n_phys).sum(axis=0, out=w_path)
    if monitors:
        grad_w_sq = grad_integrals(g.to_spec(w))
    d = g.to_phys(back, in_place=True)
    del back
    phys = _stack([s.phys for s in states])
    u2 = np.square(phys[:, :2]).sum(axis=1)
    defect = 1.0 - w
    defect_sq = integrals(np.square(defect))
    lap_n = d[:, -1]
    if monitors:
        w_min, u_max = w.min(axis=(1, 2)).tolist(), np.sqrt(u2).max(axis=(1, 2)).tolist()
    relax = np.multiply(defect[:, None], phys[:, 2:])  # f(n) = (1 - |n|^2) n / eps^2
    del phys
    relax /= eps2[:, None]
    relax += lap_n
    relax_sq = integrals(np.square(relax, out=relax).sum(axis=1))
    del relax
    lap_sq = integrals(np.square(lap_n, out=lap_n).sum(axis=1))
    u_sq = integrals(u2)

    loc, l4 = [(math.nan, math.nan)] * paths, [math.nan] * paths
    if covering is not None:
        grad_n = d[:, :2]
        gn2 = np.square(grad_n, out=grad_n).sum(axis=(1, 2))
        # density of the monitored energy.  The quartic well enters with
        # weight 2: that is the unique weight for which the time derivative
        # of the total pairs exactly with -2 times the enstrophy, turning the
        # balance residual into a pure discretization error.  (The reported
        # gl_mass stays the unweighted integral.)
        e_point = u2 + gn2 + np.square(defect, out=defect) / (2.0 * eps2)
        loc = [(covering.local_maxima(e), covering.local_maxima(g2))
               for e, g2 in zip(e_point, gn2)]
        l4 = [v ** 0.25 for v in integrals(np.square(gn2, out=gn2))]
    w_max = w.max(axis=(1, 2)).tolist()

    reps = []
    for p, (s, x) in enumerate(zip(states, gls)):
        monitored = dict.fromkeys(MONITORS, math.nan) if not monitors else dict(
            eps_defect=math.sqrt(defect_sq[p]) / x.epsilon,
            eps_grad_defect=math.sqrt(grad_w_sq[p]) / x.epsilon,
            min_abs_n=math.sqrt(w_min[p]),  # sqrt is monotone and correctly rounded
            max_abs_u=u_max[p],
            div_defect=g.divergence_defect(s.u_spec),
        )
        gl_mass = defect_sq[p] / (4.0 * x.epsilon**2)
        reps.append(EnergyReport(
            step=s.step,
            t=s.t,
            energy_E=u_sq[p] + grad_n_sq[p] + 2.0 * gl_mass,
            enstrophy_D=grad_u_sq[p] + relax_sq[p],
            gl_mass=gl_mass,
            lambda1=0.5 * lap_sq[p],
            lambda2=0.5 * grad_u_sq[p],
            max_abs_n=math.sqrt(w_max[p]),
            grad_n_L4=l4[p],
            u_sq=u_sq[p],
            grad_n_sq=grad_n_sq[p],
            local_energy_max=loc[p][0],
            local_grad_max=loc[p][1],
            **monitored,
        ))
    return reps if group else reps[0]


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
            # grad_n_L4 is NaN without a covering; ls_l4 then stays 0, as
            # ls_sup does, and a checkpoint of the trace stays finite
            if not math.isnan(report.grad_n_L4):
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

    @property
    def balance(self) -> float:
        """``residual`` with its two martingale sums added back: the ensemble's
        balance statistic, of mean zero up to the discretization error."""
        return self.residual + 2.0 * self.sum_u_dw + 2.0 * self.sum_grad_cross

    def ls_ratio(self, radius: float) -> tuple[float, float, float]:
        """Empirical envelope of the interpolation inequality

            int |grad n|_{L4}^4 <= c0 * sup_{t,x} int_{B(x,R)} |grad n|^2
                                  * (int |lap n|^2 + R^-2 int |grad n|^2).

        Returns (lhs, rhs-without-c0, ratio); ratio is a lower bound for c0.
        The sup is approximated by the covering max at radius 2R.
        """
        rhs = self.ls_sup * (self.ls_lap + self.ls_grad / radius**2)
        return self.ls_l4, rhs, self.ls_l4 / rhs if rhs > 0.0 else 0.0
