"""Energy reports, covering-based local maxima, stop detectors, traces."""

import math

import numpy as np
import pytest

import nsgl.experiments as experiments
from nsgl.diagnostics import CoveringSet, EnergyReport, RunTrace, energy_report
from nsgl.experiments import run_path
from nsgl.grid import DirectorField
from nsgl.noise import NoiseModel
from nsgl.operators import GLParams
from nsgl.stepper import SimState, StepperConfig, StepLedger, step

PI = np.pi


def circle_state(grid, u_amp=0.0):
    x1, x2 = grid.meshgrid()
    n = np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)])
    u = u_amp * np.stack([np.sin(x2), np.zeros_like(x2)])
    return SimState.from_arrays(grid, u, n)


def test_energy_report_circle_field(grid32):
    state = circle_state(grid32)
    rep = energy_report(state, GLParams(epsilon=0.5))
    four_pi_sq = 4.0 * PI**2
    assert rep.energy_E == pytest.approx(four_pi_sq, rel=1e-12)
    assert rep.enstrophy_D == pytest.approx(four_pi_sq, rel=1e-12)
    assert rep.grad_n_sq == pytest.approx(four_pi_sq, rel=1e-12)
    assert rep.lambda1 == pytest.approx(2.0 * PI**2, rel=1e-12)
    assert rep.gl_mass < 1e-24
    assert rep.eps_defect < 1e-12 and rep.eps_grad_defect < 1e-11
    assert rep.min_abs_n == pytest.approx(1.0, abs=1e-14)
    assert rep.max_abs_n == pytest.approx(1.0, abs=1e-14)
    assert rep.u_sq == 0.0 and rep.lambda2 == 0.0
    assert math.isnan(rep.local_energy_max)  # no covering handed in


def test_energy_report_with_velocity(grid32):
    state = circle_state(grid32, u_amp=1.0)
    rep = energy_report(state, GLParams(epsilon=0.5))
    assert rep.u_sq == pytest.approx(2.0 * PI**2, rel=1e-12)
    assert rep.lambda2 == pytest.approx(PI**2, rel=1e-12)
    assert rep.energy_E == pytest.approx(4.0 * PI**2 + 2.0 * PI**2, rel=1e-12)
    assert rep.enstrophy_D == pytest.approx(4.0 * PI**2 + 2.0 * PI**2, rel=1e-12)
    assert rep.max_abs_u == pytest.approx(1.0, abs=1e-12)
    assert rep.div_defect < 1e-12


def test_gl_mass_matches_operator(grid32):
    """Closed forms of (1/4 eps^2) int (1 - |n|^2)^2 for constant directors."""
    u = circle_state(grid32).u
    zero = DirectorField(grid32, phys=np.zeros((3, 32, 32)))
    rep = energy_report(SimState(t=0.0, step=0, u=u, n=zero), GLParams(epsilon=1.0))
    assert rep.gl_mass == pytest.approx(PI**2, rel=1e-14)
    half = DirectorField.from_scalar_axis(grid32, np.full((32, 32), 0.5),
                                          axis=(1.0, 0.0, 0.0))
    state = SimState(t=0.0, step=0, u=u, n=half)
    rep = energy_report(state, GLParams(epsilon=0.5))
    assert rep.gl_mass == pytest.approx((9.0 / 16.0) * 4.0 * PI**2, rel=1e-14)


@pytest.mark.parametrize("radius", [PI / 8.0, PI / 4.0, PI / 2.0])
def test_covering_lattice_invariants(grid64, radius):
    cov = CoveringSet(grid64, radius)
    m = int(np.ceil(2.0 * PI / (radius * np.sqrt(2.0))))
    assert cov.n_centers == m * m
    assert cov.coverage_defect() <= radius + 1e-12
    # center count scales like R^-2 with a uniform constant
    assert cov.n_centers * radius**2 <= 22.5


def test_covering_radius_validation(grid32):
    with pytest.raises(ValueError):
        CoveringSet(grid32, 0.0)
    with pytest.raises(ValueError):
        CoveringSet(grid32, PI / 2.0 + 0.1)


def test_report_local_maxima_uniform_field(grid64):
    state = circle_state(grid64)
    cov = CoveringSet(grid64, PI / 4.0)
    rep = energy_report(state, GLParams(epsilon=0.5), cov)
    # masks use radius 2R; uniform integrand = 1
    expect = PI * (PI / 2.0) ** 2
    assert rep.local_energy_max == pytest.approx(expect, rel=0.05)
    assert rep.local_grad_max == pytest.approx(expect, rel=0.05)
    assert rep.local_energy_max <= rep.energy_E + 1e-9


def make_report(step, t, local_max=0.0, min_n=1.0):
    return EnergyReport(
        step=step, t=t, energy_E=1.0, enstrophy_D=0.5, gl_mass=0.0,
        lambda1=0.2, lambda2=0.1, eps_defect=0.0, eps_grad_defect=0.0,
        min_abs_n=min_n, max_abs_n=1.0, grad_n_L4=0.3, u_sq=0.4,
        grad_n_sq=0.6, max_abs_u=0.2, div_defect=0.0,
        local_energy_max=local_max, local_grad_max=local_max)


def test_stop_detectors_first_hit_is_permanent():
    trace = RunTrace(delta=2.0)
    trace.append(make_report(0, 0.0, local_max=1.0))
    assert trace.t_sigma1 == trace.t_sigma2 == math.inf and trace.sigma(1.0) == 1.0
    trace.append(make_report(1, 0.1, local_max=2.5))
    assert trace.t_sigma1 == 0.1
    trace.append(make_report(2, 0.2, local_max=5.0))
    assert trace.t_sigma1 == 0.1  # unchanged after first hit
    assert trace.sigma(1.0) == 0.1
    trace.append(make_report(3, 0.3, min_n=0.4))
    assert trace.t_sigma2 == 0.3
    assert trace.sigma(1.0) == 0.1


def test_stop_sigma2_on_small_modulus():
    trace = RunTrace(delta=1e9)
    trace.append(make_report(0, 0.0, min_n=0.51))
    assert trace.t_sigma2 == np.inf
    trace.append(make_report(1, 0.5, min_n=0.5))
    assert trace.t_sigma2 == 0.5
    assert trace.sigma(2.0) == 0.5


def test_stop_detectors_stay_off_without_delta():
    trace = RunTrace()
    trace.append(make_report(0, 0.0, local_max=5.0, min_n=0.1))
    assert trace.t_sigma1 == trace.t_sigma2 == math.inf and trace.sigma(1.0) == 1.0


def test_run_trace_accumulation():
    trace = RunTrace(trace_q_eff=0.3)
    trace.append(make_report(0, 0.0))
    led = StepLedger(u_dw=0.1, grad_cross_deta=0.02, cross_sq_dt=0.01)
    trace.append(make_report(1, 0.1), led)
    assert trace.int_d == pytest.approx(0.05, abs=1e-15)
    trace.append(make_report(2, 0.2), led)
    assert (trace.sum_u_dw, trace.sum_grad_cross, trace.sum_cross_sq) == \
        (0.1 + 0.1, 0.02 + 0.02, 0.01 + 0.01)
    assert trace.last.step == 2 and trace.last.t == 0.2
    # constant D = 0.5: trapezoid gives exactly 0.5 t
    assert trace.int_d == pytest.approx(0.1, abs=1e-15)
    assert trace.sup_e == 1.0 and trace.max_n == 1.0


def test_energy_identity_residual_formula():
    """Hand-checkable residual: constant E and D, known stochastic sums."""
    trace = RunTrace(trace_q_eff=0.3)
    trace.append(make_report(0, 0.0))
    assert trace.residual == 0.0
    led = StepLedger(u_dw=0.1, grad_cross_deta=0.02, cross_sq_dt=0.01)
    trace.append(make_report(1, 0.1), led)
    # E flat, 2 int D = 0.1, TrQ t = 0.03, 2 u_dw = 0.2, 2 gc = 0.04, cs = 0.01
    assert trace.residual == pytest.approx(0.1 - 0.03 - 0.2 - 0.04 - 0.01, abs=1e-15)


def test_ls_ratio_synthetic_trace():
    trace = RunTrace()
    for k in range(5):
        trace.append(make_report(k, 0.1 * k, local_max=2.0))
    lhs, rhs, ratio = trace.ls_ratio(PI / 4.0)
    t_total = 0.4
    assert lhs == pytest.approx(0.3**4 * t_total, rel=1e-12)
    expect_rhs = 2.0 * (2.0 * 0.2 * t_total + 0.6 * t_total / (PI / 4.0) ** 2)
    assert rhs == pytest.approx(expect_rhs, rel=1e-12)
    assert ratio == pytest.approx(lhs / expect_rhs, rel=1e-12)


def test_fold_matches_the_history_formulas(grid16, monkeypatch):
    """The fold's end values against the array formulas over the full
    report history (kept here as the reference): cumulative-sum trapezoid
    for int D, the residual, np.trapezoid for the local-smallness integrals.
    A noisy N = 16 run with a covering and an auto stop that fires at t = 0.
    int D, residual, balance, sup E and max |n| are the same operations in
    the same order, so they must be bitwise equal; np.trapezoid sums
    pairwise, so the ls numbers match to 1e-12 relative."""
    x1, x2 = grid16.meshgrid()
    state = SimState.from_arrays(
        grid16, 0.2 * np.stack([np.sin(x2), np.zeros_like(x2)]),
        np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)]))
    noise = NoiseModel(grid16, seed=9, mode_cutoff=4,
                       h=DirectorField.from_scalar_axis(grid16, np.cos(x1)))
    cov = CoveringSet(grid16, PI / 4.0)
    reports, ledgers = [], []

    def step_and_record(*args, **kwargs):
        out = step(*args, **kwargs)
        ledgers.append(out[1])
        return out

    monkeypatch.setattr(experiments, "step", step_and_record)
    trace = run_path(state, StepperConfig(dt=5e-3, t_end=0.1), GLParams(epsilon=0.3),
                     noise, covering=cov, on_report=lambda st, tr: reports.append(tr.last))
    assert len(reports) == 21 and len(ledgers) == 20

    t = np.array([r.t for r in reports])

    def col(name):
        return np.array([getattr(r, name) for r in reports])

    e, d = col("energy_E"), col("enstrophy_D")
    int_d = np.zeros_like(d)
    int_d[1:] = np.cumsum(0.5 * (d[1:] + d[:-1]) * np.diff(t))
    cum = [np.concatenate([[0.0], np.cumsum([getattr(led, k) for led in ledgers])])
           for k in ("u_dw", "grad_cross_deta", "cross_sq_dt")]
    res = e - e[0] + 2.0 * int_d - trace.trace_q_eff * (t - t[0])
    res -= 2.0 * cum[0]
    res -= 2.0 * cum[1]
    res -= cum[2]
    assert trace.trace_q_eff > 0.0 and trace.sum_grad_cross != 0.0
    assert trace.int_d == int_d[-1]
    assert trace.residual == res[-1]
    assert trace.residual + 2.0 * trace.sum_u_dw + 2.0 * trace.sum_grad_cross == \
        res[-1] + 2.0 * cum[0][-1] + 2.0 * cum[1][-1]
    assert trace.sup_e == np.max(e) and trace.max_n == np.max(col("max_abs_n"))
    assert trace.e0 == e[0] and trace.t0 == t[0] and trace.last == reports[-1]

    # the auto stop (5% of E(0)) fires on the t0 report, as in the CLI run
    assert trace.delta == max(0.05 * e[0], 1e-3)
    assert trace.t_sigma1 == 0.0 and trace.t_sigma2 == math.inf

    radius = PI / 4.0
    lhs = float(np.trapezoid(col("grad_n_L4") ** 4, t))
    sup_local = float(np.max(col("local_grad_max")))
    int_lap = float(np.trapezoid(2.0 * col("lambda1"), t))
    int_grad = float(np.trapezoid(col("grad_n_sq"), t))
    rhs = sup_local * (int_lap + int_grad / radius**2)
    got = trace.ls_ratio(radius)
    assert trace.ls_sup == sup_local
    for a, b in zip(got, (lhs, rhs, lhs / rhs)):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0)
