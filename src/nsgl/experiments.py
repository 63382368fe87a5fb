"""Experiment harnesses: single paths, relaxation families, ensembles.

The relaxation study advances every family member through the identical
Brownian path (same stream key, same substream layout), so differences
between members isolate the penalty parameter.  The smallest epsilon acts
as the reference trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import CoveringSet, RunTrace, energy_report
from .grid import DirectorField, VelocityField, sobolev_norm
from .noise import NoiseModel
from .operators import GLParams, cross3
from .stepper import SimState, StepperConfig, required_level, step

__all__ = [
    "NumericsError",
    "run_path",
    "run_coupled_family",
    "run_ensemble",
    "fit_rate",
    "ConvergenceReport",
    "EnsembleReport",
]


class NumericsError(RuntimeError):
    """A state stopped being finite."""


def resolve_stop_delta(delta, initial_energy: float) -> float:
    """'auto' concentration threshold: 5% of the initial energy, floored."""
    if delta == "auto":
        return max(0.05 * initial_energy, 1e-3)
    return float(delta)


def _check_finite(report, t):
    if not (np.isfinite(report.energy_E) and np.isfinite(report.max_abs_n)):
        raise NumericsError(f"state lost finiteness at t={t:.6g}")


class _Path:
    """One path's state, stepping and report trace: the core every driver shares.

    Construction reports the start state.  A fresh path folds that report
    into a new trace; a path resumed with the ``trace`` loaded beside its
    start state only takes the report as the trace's ``last``, since the
    trace already holds it.  Either way the stop detectors are armed when a
    covering is given, with ``stop_delta`` resolved against the trace's
    ``e0``.  Each ``advance`` takes one logical step, reports it, folds it
    into ``trace`` and hands ``(state, trace)`` to ``on_report``; the
    report is ``trace.last``.  With ``keep_drift``, ``drift`` holds the
    limit-equation drift of the current state (``_limit_drift``), built
    from its report's derivatives.
    """

    def __init__(self, state0: SimState, cfg: StepperConfig, gl: GLParams,
                 noise: NoiseModel, covering: CoveringSet | None, stop_delta, on_report,
                 keep_drift: bool = False, trace: RunTrace | None = None):
        self.state, self.cfg, self.gl, self.noise = state0, cfg, gl, noise
        self.covering, self.on_report = covering, on_report
        self.keep_drift, self.drift = keep_drift, None
        rep = self._report(state0)
        fresh = trace is None
        self.trace = trace = RunTrace() if fresh else trace
        trace.trace_q_eff = noise.trace_q if noise.velocity_on else 0.0
        if covering is not None:
            trace.delta = resolve_stop_delta(stop_delta, rep.energy_E if fresh else trace.e0)
        if fresh:
            trace.append(rep)
        else:
            trace.last = rep
        self._notify(state0)

    def _report(self, state):
        derivs = [] if self.keep_drift else None
        rep = energy_report(state, self.gl, self.covering, derivs_out=derivs)
        _check_finite(rep, state.t)
        if derivs is not None:
            self.drift = _limit_drift(state, *derivs)
        return rep

    def _notify(self, state):
        if self.on_report is not None:
            self.on_report(state, self.trace)

    def advance(self, force_level: int | None = None):
        """One step; returns the state it started from and its ledger."""
        prev = self.state
        self.state, ledger = step(prev, self.cfg, self.gl, self.noise, force_level=force_level)
        self.trace.append(self._report(self.state), ledger)
        self._notify(self.state)
        return prev, ledger

    @property
    def sigma(self) -> float:
        """Stopping time so far (the horizon when no detector runs)."""
        return self.trace.sigma(self.cfg.t_end)


def run_path(state0: SimState, cfg: StepperConfig, gl: GLParams, noise: NoiseModel,
             covering: CoveringSet | None = None, stop_delta="auto",
             on_report=None, trace: RunTrace | None = None) -> RunTrace:
    """Advance one path to t_end and return its trace.

    ``trace``, when given, is the trace saved with ``state0`` (see
    :func:`nsgl.io_cli.load_checkpoint`); the run then continues it, so its
    end values are those of the uninterrupted run.
    """
    path = _Path(state0, cfg, gl, noise, covering, stop_delta, on_report, trace=trace)
    for _ in range(max(0, cfg.n_steps - state0.step)):
        path.advance()
    return path.trace


# -- log-log rate fitting ------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    rate: float
    intercept: float
    half_width: float
    n_points: int


def fit_rate(xs, ys) -> RateFit:
    """Least-squares slope of log y against log x (y ~ C x^rate).

    half_width is two standard errors of the slope (0 when dof <= 0).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 2 or len(xs) != len(ys):
        raise ValueError("fit_rate needs matching arrays of >= 2 points")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("fit_rate needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, res, *_ = np.linalg.lstsq(a, ly, rcond=None)
    dof = len(xs) - 2
    if dof > 0 and res.size:
        var = float(res[0]) / dof / float(np.sum((lx - lx.mean()) ** 2))
        hw = 2.0 * float(np.sqrt(var))
    else:
        hw = 0.0
    return RateFit(rate=float(coef[0]), intercept=float(coef[1]),
                   half_width=hw, n_points=len(xs))


# -- coupled relaxation family ---------------------------------------------------

@dataclass
class MemberStats:
    """Per-epsilon outcomes across paths (index = path)."""

    epsilon: float
    sup_dist: np.ndarray
    l2_dist: np.ndarray
    defect_sup: np.ndarray
    residual_ito: np.ndarray
    residual_strat: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    max_abs_n: np.ndarray


@dataclass
class ConvergenceReport:
    eps_family: tuple
    eps_ref: float
    alpha: float
    dt: float
    t_end: float
    n_paths: int
    n_modes: int
    tau: np.ndarray
    members: dict
    rate_sup: RateFit | None
    rate_l2: RateFit | None
    rate_defect: RateFit | None

    def to_text(self) -> str:
        out = ["relaxation family report"]
        out.append(f"eps_family = {', '.join(f'{e:.17g}' for e in self.eps_family)}")
        out.append(f"eps_ref = {self.eps_ref:.17g}  alpha = {self.alpha:.17g}")
        out.append(f"n_modes = {self.n_modes}  dt = {self.dt:.17g}  t_end = {self.t_end:.17g}  paths = {self.n_paths}")
        out.append("tau = " + ", ".join(f"{v:.17g}" for v in self.tau))
        for eps in self.eps_family:
            m = self.members[eps]
            out.append(f"[eps = {eps:.17g}]")
            for label, arr in [
                ("sup_dist", m.sup_dist), ("l2_dist", m.l2_dist),
                ("defect_sup", m.defect_sup), ("residual_ito", m.residual_ito),
                ("residual_strat", m.residual_strat),
                ("sigma1", m.sigma1), ("sigma2", m.sigma2),
            ]:
                out.append(f"  {label} = " + ", ".join(f"{v:.17g}" for v in arr))
        for label, fitted in [("rate_sup", self.rate_sup), ("rate_l2", self.rate_l2),
                              ("rate_defect", self.rate_defect)]:
            if fitted is not None:
                out.append(f"{label}: rate = {fitted.rate:.17g} +- {fitted.half_width:.17g}"
                           f" (intercept {fitted.intercept:.17g}, {fitted.n_points} pts)")
        return "\n".join(out) + "\n"


def _limit_drift(state: SimState, d1, d2, lap) -> np.ndarray:
    """Drift lap n + |grad n|^2 n - u.grad n of the limit equation at ``state``,
    from the physical derivatives of n its energy report computed."""
    grad_sq = np.sum(d1 * d1 + d2 * d2, axis=0)
    conv = state.u.phys[0] * d1 + state.u.phys[1] * d2
    return lap + grad_sq * state.n.phys - conv


def _limit_residuals(grid, dt: float, prev: SimState, new: SimState, noise: NoiseModel,
                     d_eta: float, drift: np.ndarray) -> tuple[float, float]:
    """(Ito, Stratonovich) L2 defects of one step against the limit equation
    dn = (lap n + |grad n|^2 n - u.grad n) dt + (n x h) deta, with ``drift``
    taken at the left point ``prev``; the Stratonovich defect also takes off
    0.5 (n x h) x h dt."""
    r = r2 = (new.n.phys - prev.n.phys) - dt * drift
    if noise.director_on and noise.h is not None:
        nxh = cross3(prev.n.phys, noise.h.phys)
        r = r - d_eta * nxh
        r2 = r - dt * (0.5 * cross3(nxh, noise.h.phys))
    return grid.l2_norm_phys(r), grid.l2_norm_phys(r2)


@dataclass
class _Member:
    """One family member on one path: its path core plus the running sums."""

    eps: float
    path: _Path
    defect: float
    sup: float = 0.0
    l2_sq: float = 0.0
    l2_prev: float = 0.0
    res_ito: float = 0.0
    res_strat: float = 0.0

    def advance(self, level: int, accum_until: float):
        """One step at the family's level; an unhalved step up to
        ``accum_until`` adds its limit-equation residuals."""
        path = self.path
        drift = path.drift
        prev, ledger = path.advance(force_level=level)
        if level == 0 and prev.t <= accum_until:
            ito, strat = _limit_residuals(path.state.grid, path.cfg.dt, prev, path.state,
                                          path.noise, ledger.d_eta, drift)
            self.res_ito += ito
            self.res_strat += strat


def _member_observer(on_member_report, p: int, eps: float):
    if on_member_report is None:
        return None
    return lambda state, trace: on_member_report(p, eps, trace.last)


def run_coupled_family(state0: SimState, cfg: StepperConfig, eps_family,
                       noise_base: NoiseModel, n_paths: int, alpha: float = 1.0,
                       covering: CoveringSet | None = None, stop_delta="auto",
                       on_member_report=None) -> ConvergenceReport:
    """Pathwise-coupled relaxation study against the smallest-epsilon member.

    ``on_member_report(path_index, epsilon, report)``, when given, observes
    every per-step diagnostic row of every family member.
    """
    eps_family = tuple(float(e) for e in eps_family)
    if len(set(eps_family)) != len(eps_family):
        raise ValueError("eps_family entries must be distinct")
    eps_ref = min(eps_family)
    grid = state0.grid
    stats = {eps: MemberStats(
        epsilon=eps,
        sup_dist=np.zeros(n_paths), l2_dist=np.zeros(n_paths),
        defect_sup=np.zeros(n_paths), residual_ito=np.zeros(n_paths),
        residual_strat=np.zeros(n_paths),
        sigma1=np.full(n_paths, np.inf), sigma2=np.full(n_paths, np.inf),
        max_abs_n=np.zeros(n_paths),
    ) for eps in eps_family}
    tau = np.full(n_paths, cfg.t_end)

    for p in range(n_paths):
        noise = replace(noise_base, path_id=noise_base.path_id + p)
        members = []
        for eps in eps_family:
            path = _Path(state0, cfg, GLParams(epsilon=eps), noise, covering, stop_delta,
                         _member_observer(on_member_report, p, eps), keep_drift=True)
            members.append(_Member(eps, path, defect=path.trace.last.eps_defect * eps))
        ref = members[eps_family.index(eps_ref)].path
        accum_until = cfg.t_end

        for _ in range(cfg.n_steps):
            level = max(required_level(m.path.state, cfg) for m in members)
            for m in members:
                m.advance(level, accum_until)
            accum_until = min(accum_until, min(m.path.sigma for m in members))
            if ref.state.t > accum_until:
                continue
            for m in members:
                m.defect = max(m.defect, m.path.trace.last.eps_defect * m.eps)
                if m.path is ref:
                    continue
                du = VelocityField(grid, spec=m.path.state.u.spec - ref.state.u.spec)
                dn = DirectorField(grid, spec=m.path.state.n.spec - ref.state.n.spec)
                d_low = sobolev_norm(du, alpha - 1.0, homogeneous=True) \
                    + sobolev_norm(dn, alpha, homogeneous=False)
                m.sup = max(m.sup, d_low)
                d_high_sq = sobolev_norm(du, alpha, homogeneous=True) ** 2 \
                    + sobolev_norm(dn, 1.0 + alpha, homogeneous=False) ** 2
                m.l2_sq += 0.5 * cfg.dt * (m.l2_prev + d_high_sq)
                m.l2_prev = d_high_sq

        tau[p] = min(m.path.sigma for m in members)
        for m in members:
            s = stats[m.eps]
            s.sup_dist[p], s.l2_dist[p], s.defect_sup[p] = m.sup, np.sqrt(m.l2_sq), m.defect
            s.residual_ito[p], s.residual_strat[p] = m.res_ito, m.res_strat
            trace = m.path.trace
            s.sigma1[p], s.sigma2[p] = trace.t_sigma1, trace.t_sigma2
            s.max_abs_n[p] = trace.max_n

    non_ref = [e for e in eps_family if e != eps_ref]
    rate_sup = rate_l2 = rate_defect = None
    try:
        if len(non_ref) >= 2:
            rate_sup = fit_rate(non_ref, [float(np.mean(stats[e].sup_dist)) for e in non_ref])
            rate_l2 = fit_rate(non_ref, [float(np.mean(stats[e].l2_dist)) for e in non_ref])
        if len(eps_family) >= 2:
            rate_defect = fit_rate(eps_family,
                                   [float(np.mean(stats[e].defect_sup)) for e in eps_family])
    except ValueError:
        pass  # zero distances (e.g. family of identical members) have no rate
    return ConvergenceReport(
        eps_family=eps_family, eps_ref=eps_ref, alpha=alpha, dt=cfg.dt,
        t_end=cfg.t_end, n_paths=n_paths, n_modes=grid.n_modes, tau=tau,
        members=stats, rate_sup=rate_sup, rate_l2=rate_l2, rate_defect=rate_defect,
    )


# -- independent ensembles -----------------------------------------------------

@dataclass
class EnsembleReport:
    n_paths: int
    t_end: float
    trace_q: float
    sup_energy: np.ndarray          # per path
    int_dissipation: np.ndarray     # per path, int_0^T D
    balance: np.ndarray             # per path ensemble-balance statistic
    residual: np.ndarray            # per path pathwise residual at T
    max_abs_n: float
    mean_energy_final: float

    @property
    def mean_sup_energy(self) -> float:
        return float(np.mean(self.sup_energy))

    @property
    def mean_sup_energy_sq(self) -> float:
        return float(np.mean(self.sup_energy**2))

    @property
    def balance_mean(self) -> float:
        return float(np.mean(self.balance))

    @property
    def balance_se(self) -> float:
        return float(np.std(self.balance, ddof=1) / np.sqrt(len(self.balance)))

    def to_text(self) -> str:
        lines = [
            "ensemble report",
            f"paths = {self.n_paths}  t_end = {self.t_end:.17g}  TrQ = {self.trace_q:.17g}",
            f"E[sup E] = {self.mean_sup_energy:.17g}",
            f"E[(sup E)^2] = {self.mean_sup_energy_sq:.17g}",
            f"E[int D] = {float(np.mean(self.int_dissipation)):.17g}",
            f"E[E(T)] = {self.mean_energy_final:.17g}",
            f"balance mean = {self.balance_mean:.17g}  se = {self.balance_se:.17g}",
            f"pathwise residual mean = {float(np.mean(self.residual)):.17g}",
            f"max |n| over ensemble = {self.max_abs_n:.17g}",
        ]
        return "\n".join(lines) + "\n"


def run_ensemble(state0: SimState, cfg: StepperConfig, gl: GLParams,
                 noise_base: NoiseModel, n_paths: int) -> EnsembleReport:
    """Independent paths (path_id offsets) from shared initial data, with no
    stop detectors or covering maxima: the report reads neither."""
    sup_e = np.zeros(n_paths)
    int_d = np.zeros(n_paths)
    balance = np.zeros(n_paths)
    residual = np.zeros(n_paths)
    e_final = np.zeros(n_paths)
    max_n = 0.0
    for p in range(n_paths):
        noise = replace(noise_base, path_id=noise_base.path_id + p)
        trace = run_path(state0, cfg, gl, noise)
        sup_e[p], e_final[p], int_d[p] = trace.sup_e, trace.last.energy_E, trace.int_d
        residual[p] = res = trace.residual
        balance[p] = res + 2.0 * trace.sum_u_dw + 2.0 * trace.sum_grad_cross
        max_n = max(max_n, trace.max_n)
    return EnsembleReport(
        n_paths=n_paths, t_end=cfg.t_end,
        trace_q=noise_base.trace_q if noise_base.velocity_on else 0.0,
        sup_energy=sup_e, int_dissipation=int_d, balance=balance,
        residual=residual, max_abs_n=max_n,
        mean_energy_final=float(np.mean(e_final)),
    )
