"""Experiment harnesses: single paths, relaxation families, ensembles.

The relaxation study advances every family member through the identical
Brownian path (same stream key, same substream layout), drawn once per
step and shared, so differences between members isolate the penalty
parameter.  The smallest epsilon acts as the reference trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import CoveringSet, RunTrace, energy_report
from .grid import CHUNK_BYTES, sobolev_norm
from .noise import NoiseModel
from .stepper import GLParams, SimState, StepperConfig, required_level, step

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


def _check_finite(report, state):
    """Raise a NumericsError naming the first non-finite value among the
    state's spectra and the report's E, D and max |n|, the numbers a trace
    folds (D through its integral).  The spectra are tested only once one
    of the three is not finite."""
    if (math.isfinite(report.energy_E) and math.isfinite(report.enstrophy_D)
            and math.isfinite(report.max_abs_n)):
        return
    if not np.isfinite(state.spec).all():
        raise NumericsError(f"state lost finiteness at t={state.t:.6g}")
    name = next(k for k in ("energy_E", "enstrophy_D", "max_abs_n")
                if not math.isfinite(getattr(report, k)))
    raise NumericsError(f"report {name} = {getattr(report, name)} at t={state.t:.6g}, "
                        f"from a finite state")


class _Path:
    """One path's state, stepping and report trace: the core every driver shares.

    Paths go in groups of one or more that share a covering and
    ``monitors`` (``_start``, ``_advance``): each path steps on its own,
    then one ``energy_report`` call reports the whole group, and each path
    folds its report into its trace.  ``start`` folds the report of the
    start state: a fresh path (``trace`` None) into a new trace; a path
    resumed with the ``trace`` loaded beside its start state only takes the
    report as the trace's ``last``, since the trace already holds it.
    Either way the stop detectors are armed when a covering is given, with
    ``stop_delta`` resolved against the trace's ``e0``.  ``fold`` appends
    the report of a step and hands ``(state, trace)`` to ``on_report``; the
    report is ``trace.last``.  ``monitors=False`` reports without the
    state monitors (``diagnostics.MONITORS``), for a path whose trace only
    folds the balance: no covering, so no stop detector reads them.
    ``noise_ledger=False`` steps without the noise sums of the ledger
    (``step``'s parameter), for a path whose driver never reads its
    balance: its trace's ``residual`` then reads NaN.
    """

    def __init__(self, state0: SimState, cfg: StepperConfig, gl: GLParams,
                 noise: NoiseModel, covering: CoveringSet | None, stop_delta, on_report,
                 trace: RunTrace | None = None, monitors: bool = True,
                 noise_ledger: bool = True):
        self.state, self.cfg, self.gl, self.noise = state0, cfg, gl, noise
        self.covering, self.on_report, self.monitors = covering, on_report, monitors
        self.stop_delta, self.trace, self.noise_ledger = stop_delta, trace, noise_ledger

    def start(self, rep):
        fresh = self.trace is None
        self.trace = trace = RunTrace() if fresh else self.trace
        trace.trace_q_eff = self.noise.trace_q if self.noise.velocity_on else 0.0
        if self.covering is not None:
            trace.delta = resolve_stop_delta(self.stop_delta,
                                             rep.energy_E if fresh else trace.e0)
        if fresh:
            trace.append(rep)
        else:
            trace.last = rep
        self._notify()

    def step(self, force_level: int | None = None, draws: dict | None = None):
        """One step; returns its ledger.  ``draws`` is the noise draws dict
        of ``step``."""
        self.state, ledger = step(self.state, self.cfg, self.gl, self.noise,
                                  force_level=force_level, draws=draws,
                                  noise_ledger=self.noise_ledger)
        return ledger

    def fold(self, rep, ledger):
        self.trace.append(rep, ledger)
        self._notify()

    def _notify(self):
        if self.on_report is not None:
            self.on_report(self.state, self.trace)

    @property
    def sigma(self) -> float:
        """Stopping time so far (the horizon when no detector runs)."""
        return self.trace.sigma(self.cfg.t_end)


def _report(paths: list) -> list:
    """The reports of the current states of a group of paths, from one
    ``energy_report`` call, each path on its own ``gl``."""
    head = paths[0]
    reps = energy_report([p.state for p in paths], [p.gl for p in paths], head.covering,
                         monitors=head.monitors)
    for path, rep in zip(paths, reps):
        _check_finite(rep, path.state)
    return reps


def _start(paths: list):
    """Report the start states of a group and fold each into its trace."""
    for path, rep in zip(paths, _report(paths)):
        path.start(rep)


def _advance(paths: list, force_level: int | None = None, draws: dict | None = None):
    """One step of every path of a group, then one report of the group,
    folded path by path with each step's ledger."""
    ledgers = [path.step(force_level, draws) for path in paths]
    for path, rep, ledger in zip(paths, _report(paths), ledgers):
        path.fold(rep, ledger)


def _group_size(state: SimState) -> int:
    """Paths an ensemble steps in lockstep and reports together: as many as
    fit in one transform chunk's ``CHUNK_BYTES`` at twice a state's bytes
    each, at least one: 9 at N = 16, 2 at N = 32, 1 from N = 64 on.  A path
    in a group holds its state while the others step, and the group report
    adds about as much again (its derivative stack and that stack's inverse
    temporary), so at N = 32 each path beyond the first raises the
    ensemble's peak RSS by about 0.25 MB."""
    return max(1, CHUNK_BYTES // (2 * (state.spec.nbytes + state.phys.nbytes)))


def run_path(state0: SimState, cfg: StepperConfig, gl: GLParams, noise: NoiseModel,
             covering: CoveringSet | None = None, stop_delta="auto",
             on_report=None, trace: RunTrace | None = None) -> RunTrace:
    """Advance one path to t_end and return its trace.

    ``trace``, when given, is the trace saved with ``state0`` (see
    :func:`nsgl.io_cli.load_checkpoint`); the run then continues it, so its
    end values are those of the uninterrupted run.
    """
    group = [_Path(state0, cfg, gl, noise, covering, stop_delta, on_report, trace=trace)]
    _start(group)
    for _ in range(max(0, cfg.n_steps - state0.step)):
        _advance(group)
    return group[0].trace


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
    """Per-epsilon outcomes across paths (index = path); the epsilon is
    its key in ``ConvergenceReport.members``."""

    sup_dist: np.ndarray
    l2_dist: np.ndarray
    defect_sup: np.ndarray
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
                ("defect_sup", m.defect_sup), ("sigma1", m.sigma1), ("sigma2", m.sigma2),
            ]:
                out.append(f"  {label} = " + ", ".join(f"{v:.17g}" for v in arr))
        for label, fitted in [("rate_sup", self.rate_sup), ("rate_l2", self.rate_l2),
                              ("rate_defect", self.rate_defect)]:
            if fitted is not None:
                out.append(f"{label}: rate = {fitted.rate:.17g} +- {fitted.half_width:.17g}"
                           f" (intercept {fitted.intercept:.17g}, {fitted.n_points} pts)")
        return "\n".join(out) + "\n"


def _mean_rate(stats: dict, eps: list, field: str) -> RateFit | None:
    """``fit_rate`` of the path means of one ``MemberStats`` field against
    ``eps``; None where ``fit_rate`` refuses the data: fewer than two
    members, or a mean that is not positive (zero distances, e.g. paths
    stopped at t = 0, have no rate).  Each rate is fitted on its own, so one
    that has none leaves the others."""
    try:
        return fit_rate(eps, [float(np.mean(getattr(stats[e], field))) for e in eps])
    except ValueError:
        return None


def _path_models(noise_base: NoiseModel, n_paths: int) -> list:
    """Every path's noise model, on path ids ``noise_base.path_id + p``; built
    before any path runs, so a path id past the stream keys fails at once."""
    return [noise_base.for_path(noise_base.path_id + p) for p in range(n_paths)]


def run_coupled_family(state0: SimState, cfg: StepperConfig, eps_family,
                       noise_base: NoiseModel, n_paths: int, alpha: float = 1.0,
                       covering: CoveringSet | None = None, stop_delta="auto",
                       on_member_report=None) -> ConvergenceReport:
    """Pathwise-coupled relaxation study against the smallest-epsilon member.

    ``on_member_report(path_index, epsilon, report)``, when given, observes
    every per-step diagnostic row of every family member.  The report reads
    no member's balance, so the members step without the noise ledger.
    """
    eps_family = tuple(float(e) for e in eps_family)
    if len(set(eps_family)) != len(eps_family):
        raise ValueError("eps_family entries must be distinct")
    eps_ref = min(eps_family)
    grid = state0.grid
    stats = {eps: MemberStats(
        sup_dist=np.zeros(n_paths), l2_dist=np.zeros(n_paths),
        defect_sup=np.zeros(n_paths),
        sigma1=np.full(n_paths, np.inf), sigma2=np.full(n_paths, np.inf),
        max_abs_n=np.zeros(n_paths),
    ) for eps in eps_family}
    tau = np.full(n_paths, cfg.t_end)
    noises = _path_models(noise_base, n_paths)

    def norm(sq, order, homogeneous):
        return sobolev_norm(grid, sq, order, homogeneous, squared=True)

    for p, noise in enumerate(noises):
        # (eps, stats, path): the path's sup, squared L2 and defect fold into row p
        members = []
        for eps in eps_family:
            observe = None if on_member_report is None else (
                lambda state, trace, p=p, eps=eps: on_member_report(p, eps, trace.last))
            path = _Path(state0, cfg, GLParams(epsilon=eps), noise, covering, stop_delta,
                         observe, noise_ledger=False)
            _start([path])
            stats[eps].defect_sup[p] = path.trace.last.eps_defect * eps
            members.append((eps, stats[eps], path))
        ref = members[eps_family.index(eps_ref)][2]
        l2_prev = dict.fromkeys(eps_family, 0.0)

        for _ in range(cfg.n_steps):
            level = max(required_level(path.state, cfg) for _, _, path in members)
            # the members follow one Brownian path: the first draws each
            # increment of this step, the others read it from ``draws``
            draws = {}
            for _, _, path in members:
                _advance([path], force_level=level, draws=draws)
            # sigma only falls and t only rises: once t is past it, it stays past
            if ref.state.t > min(path.sigma for _, _, path in members):
                continue
            for eps, s, path in members:
                s.defect_sup[p] = max(s.defect_sup[p], path.trace.last.eps_defect * eps)
                if path is ref:
                    continue
                # |c|^2 of the difference, taken once for all four norms
                sq = np.abs(path.state.spec - ref.state.spec) ** 2
                du, dn = sq[:2], sq[2:]
                d_low = norm(du, alpha - 1.0, True) + norm(dn, alpha, False)
                s.sup_dist[p] = max(s.sup_dist[p], d_low)
                d_high_sq = norm(du, alpha, True) ** 2 + norm(dn, 1.0 + alpha, False) ** 2
                s.l2_dist[p] += 0.5 * cfg.dt * (l2_prev[eps] + d_high_sq)
                l2_prev[eps] = d_high_sq

        tau[p] = min(path.sigma for _, _, path in members)
        for _, s, path in members:
            s.l2_dist[p] = np.sqrt(s.l2_dist[p])
            trace = path.trace
            s.sigma1[p], s.sigma2[p], s.max_abs_n[p] = trace.t_sigma1, trace.t_sigma2, trace.max_n

    non_ref = [e for e in eps_family if e != eps_ref]
    return ConvergenceReport(
        eps_family=eps_family, eps_ref=eps_ref, alpha=alpha, dt=cfg.dt,
        t_end=cfg.t_end, n_paths=n_paths, n_modes=grid.n_modes, tau=tau, members=stats,
        rate_sup=_mean_rate(stats, non_ref, "sup_dist"),
        rate_l2=_mean_rate(stats, non_ref, "l2_dist"),
        rate_defect=_mean_rate(stats, eps_family, "defect_sup"),
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
        """Standard error of the balance mean; nan for fewer than 2 paths."""
        if len(self.balance) < 2:
            return np.nan
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
    stop detectors, covering maxima or state monitors: the report reads
    none of them, only E, D and max |n| through each path's trace.  The
    paths go in consecutive groups of ``_group_size``, each stepped in
    lockstep and reported with one ``energy_report`` call per step; a path's
    noise is keyed by its path id alone, so the grouping moves no bit."""
    sup_e = np.zeros(n_paths)
    int_d = np.zeros(n_paths)
    balance = np.zeros(n_paths)
    residual = np.zeros(n_paths)
    e_final = np.zeros(n_paths)
    max_n = 0.0
    noises = _path_models(noise_base, n_paths)
    size = _group_size(state0)
    for first in range(0, n_paths, size):
        group = [_Path(state0, cfg, gl, noise, None, None, None, monitors=False)
                 for noise in noises[first:first + size]]
        _start(group)
        for _ in range(cfg.n_steps):
            _advance(group)
        for p, path in enumerate(group, first):
            trace = path.trace
            sup_e[p], e_final[p], int_d[p] = trace.sup_e, trace.last.energy_E, trace.int_d
            residual[p], balance[p] = trace.residual, trace.balance
            max_n = max(max_n, trace.max_n)
    return EnsembleReport(
        n_paths=n_paths, t_end=cfg.t_end,
        trace_q=noise_base.trace_q if noise_base.velocity_on else 0.0,
        sup_energy=sup_e, int_dissipation=int_d, balance=balance,
        residual=residual, max_abs_n=max_n,
        mean_energy_final=float(np.mean(e_final)),
    )
