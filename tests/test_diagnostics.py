"""Energy reports, covering-based local maxima, stop detectors, traces."""

import math

import numpy as np
import pytest

from nsgl.diagnostics import (
    CoveringSet,
    EnergyReport,
    RunTrace,
    StopState,
    energy_identity_residual,
    energy_report,
    ls_ratio,
    update_stops,
)
from nsgl.operators import GLParams
from nsgl.stepper import SimState, StepperConfig, StepLedger

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
    from nsgl.grid import DirectorField
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
    stop = StopState(delta=2.0, radius=PI / 4.0, horizon=1.0)
    stop = update_stops(stop, make_report(0, 0.0, local_max=1.0))
    assert not stop.triggered and stop.sigma == 1.0
    stop = update_stops(stop, make_report(1, 0.1, local_max=2.5))
    assert stop.t_sigma1 == 0.1
    stop = update_stops(stop, make_report(2, 0.2, local_max=5.0))
    assert stop.t_sigma1 == 0.1  # unchanged after first hit
    assert stop.sigma == 0.1
    stop = update_stops(stop, make_report(3, 0.3, min_n=0.4))
    assert stop.t_sigma2 == 0.3
    assert stop.sigma == 0.1
    assert stop.triggered


def test_stop_sigma2_on_small_modulus():
    stop = StopState(delta=1e9, radius=PI / 4.0, horizon=2.0)
    stop = update_stops(stop, make_report(0, 0.0, min_n=0.51))
    assert stop.t_sigma2 == np.inf
    stop = update_stops(stop, make_report(1, 0.5, min_n=0.5))
    assert stop.t_sigma2 == 0.5
    assert stop.sigma == 0.5


def test_run_trace_accumulation():
    trace = RunTrace(trace_q_eff=0.3)
    trace.append(make_report(0, 0.0), None)
    led = StepLedger(u_dw=0.1, grad_cross_deta=0.02, cross_sq_dt=0.01)
    trace.append(make_report(1, 0.1), led)
    trace.append(make_report(2, 0.2), led)
    assert trace.cum_u_dw == [0.0, 0.1, 0.2]
    assert trace.cum_grad_cross == [0.0, 0.02, 0.04]
    assert trace.cum_cross_sq == [0.0, 0.01, 0.02]
    assert np.allclose(trace.times, [0.0, 0.1, 0.2])
    # constant D = 0.5: trapezoid gives exactly 0.5 t
    assert np.allclose(trace.int_dissipation(), [0.0, 0.05, 0.1])


def test_energy_identity_residual_formula():
    """Hand-checkable residual: constant E and D, known stochastic sums."""
    trace = RunTrace(trace_q_eff=0.3)
    trace.append(make_report(0, 0.0), None)
    led = StepLedger(u_dw=0.1, grad_cross_deta=0.02, cross_sq_dt=0.01)
    trace.append(make_report(1, 0.1), led)
    res = energy_identity_residual(trace)
    assert res[0] == 0.0
    # E flat, 2 int D = 0.1, TrQ t = 0.03, 2 u_dw = 0.2, 2 gc = 0.04, cs = 0.01
    assert res[1] == pytest.approx(0.1 - 0.03 - 0.2 - 0.04 - 0.01, abs=1e-15)


def test_ls_ratio_synthetic_trace():
    trace = RunTrace()
    for k in range(5):
        trace.append(make_report(k, 0.1 * k, local_max=2.0), None)
    lhs, rhs, ratio = ls_ratio(trace, PI / 4.0)
    t_total = 0.4
    assert lhs == pytest.approx(0.3**4 * t_total, rel=1e-12)
    expect_rhs = 2.0 * (2.0 * 0.2 * t_total + 0.6 * t_total / (PI / 4.0) ** 2)
    assert rhs == pytest.approx(expect_rhs, rel=1e-12)
    assert ratio == pytest.approx(lhs / expect_rhs, rel=1e-12)
