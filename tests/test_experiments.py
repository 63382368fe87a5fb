"""Experiment-layer tests: rate fits, radial relaxation, coupled families.

The workhorse fixture is the circle director field (cos x1, sin x1, 0) with
zero velocity and noise disabled.  Its modulus then obeys the scalar ODE
rho' = -rho + (1 - rho^2) rho / eps^2, whose attracting fixed point
rho* = sqrt(1 - eps^2) gives closed-form targets for the defect diagnostics.
"""

import dataclasses

import numpy as np
import pytest

from nsgl.diagnostics import CoveringSet
from nsgl.experiments import (
    NumericsError,
    fit_rate,
    resolve_stop_delta,
    run_coupled_family,
    run_ensemble,
    run_path,
)
from nsgl.grid import DirectorField, SpectralGrid, VelocityField
from nsgl.noise import NoiseModel
from nsgl.operators import GLParams
from nsgl.stepper import SimState, StepperConfig


def quiet_noise(grid, **kw):
    kw.setdefault("velocity_on", False)
    kw.setdefault("director_on", False)
    kw.setdefault("mode_cutoff", 4)
    return NoiseModel(grid, **kw)


def circle_state(grid, rho=1.0):
    n = np.zeros((3, grid.n_modes, grid.n_modes))
    n[0] = rho * np.cos(grid.x1)[:, None]
    n[1] = rho * np.sin(grid.x1)[:, None]
    u = np.zeros((2, grid.n_modes, grid.n_modes))
    return SimState.from_arrays(grid, u, n)


def constant_h(grid, mag=0.8):
    h = np.zeros((3, grid.n_modes, grid.n_modes))
    h[2] = mag
    return DirectorField(grid, phys=h)


# -- fit_rate -------------------------------------------------------------------


def test_fit_rate_recovers_exact_power_law():
    xs = np.array([0.05, 0.1, 0.2, 0.4])
    fit = fit_rate(xs, 3.0 * xs**2)
    assert abs(fit.rate - 2.0) < 1e-12
    assert abs(fit.intercept - np.log(3.0)) < 1e-12
    assert fit.half_width < 1e-10
    assert fit.n_points == 4


def test_fit_rate_half_width_reflects_scatter():
    xs = np.array([0.1, 0.2, 0.4, 0.8])
    ys = xs**2 * np.array([1.0, 1.3, 0.8, 1.1])  # noisy prefactor
    fit = fit_rate(xs, ys)
    assert 1.5 < fit.rate < 2.5
    assert fit.half_width > 0.0


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_rate([0.1], [1.0])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.2], [1.0])
    with pytest.raises(ValueError):
        fit_rate([0.1, -0.2], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.2], [1.0, 0.0])


def test_resolve_stop_delta():
    assert resolve_stop_delta("auto", 40.0) == 2.0
    assert resolve_stop_delta("auto", 1e-6) == 1e-3  # floor
    assert resolve_stop_delta(0.25, 40.0) == 0.25


# -- run_path bookkeeping ---------------------------------------------------------


def test_run_path_report_count_and_times(grid16):
    cfg = StepperConfig(dt=0.01, t_end=0.05)
    rows = []
    trace = run_path(circle_state(grid16), cfg, GLParams(epsilon=0.5),
                     quiet_noise(grid16), on_report=lambda st, tr: rows.append(tr.last))
    assert len(rows) == 6
    assert rows[0].t == 0.0 and trace.t0 == 0.0
    assert abs(rows[-1].t - 0.05) < 1e-12
    assert [r.step for r in rows] == list(range(6))
    assert trace.last is rows[-1]


def test_run_path_resumes_from_partial_step_count(grid16):
    """A state whose step counter is already past zero only gets the remainder."""
    cfg = StepperConfig(dt=0.01, t_end=0.1)
    st = circle_state(grid16)
    st = SimState(t=0.07, step=7, u=st.u, n=st.n)
    steps = []
    trace = run_path(st, cfg, GLParams(epsilon=0.5), quiet_noise(grid16),
                     on_report=lambda s, tr: steps.append(tr.last.step))
    assert steps == [7, 8, 9, 10]
    assert trace.last.step == 10 and trace.t0 == 0.07
    # already past the horizon: one report, zero steps
    st = SimState(t=0.15, step=15, u=st.u, n=st.n)
    steps = []
    trace = run_path(st, cfg, GLParams(epsilon=0.5), quiet_noise(grid16),
                     on_report=lambda s, tr: steps.append(tr.last.step))
    assert steps == [15]
    assert trace.int_d == 0.0 and trace.residual == 0.0


def test_run_path_on_report_callback_sees_every_row(grid16):
    cfg = StepperConfig(dt=0.01, t_end=0.03)
    seen = []
    run_path(circle_state(grid16), cfg, GLParams(epsilon=0.5),
             quiet_noise(grid16), on_report=lambda st, tr: seen.append(tr.last.step))
    assert seen == [0, 1, 2, 3]


def test_run_path_raises_on_nonfinite_state(grid16):
    u = np.zeros((2, 16, 16))
    u[0, 3, 4] = np.nan
    n = np.zeros((3, 16, 16))
    n[2] = 1.0
    st = SimState.from_arrays(grid16, u, n)
    cfg = StepperConfig(dt=0.01, t_end=0.02)
    with pytest.raises(NumericsError):
        run_path(st, cfg, GLParams(epsilon=0.5), quiet_noise(grid16))


def test_run_path_concentration_stop_with_spread_field(grid16):
    """A spread field holds ~20% of its energy in any 2R-ball, so the 5%

    auto threshold fires immediately; an explicit huge threshold never does.
    """
    cfg = StepperConfig(dt=0.01, t_end=0.05)
    cov = CoveringSet(grid16, np.pi / 4.0)
    trace = run_path(circle_state(grid16), cfg, GLParams(epsilon=0.5),
                     quiet_noise(grid16), covering=cov, stop_delta="auto")
    assert trace.t_sigma1 == 0.0
    assert trace.sigma(cfg.t_end) == 0.0
    trace = run_path(circle_state(grid16), cfg, GLParams(epsilon=0.5),
                     quiet_noise(grid16), covering=cov, stop_delta=1e9)
    assert trace.t_sigma1 == trace.t_sigma2 == np.inf
    assert trace.sigma(cfg.t_end) == cfg.t_end


# -- radial relaxation against the scalar ODE -------------------------------------


@pytest.mark.parametrize("eps", [0.4, 0.3, 0.2])
def test_circle_field_relaxes_to_radial_fixed_point(grid16, eps):
    """|n| converges to rho* = sqrt(1 - eps^2), uniformly on the torus."""
    cfg = StepperConfig(dt=1e-3, t_end=1.0)
    min_n = []
    trace = run_path(circle_state(grid16), cfg, GLParams(epsilon=eps),
                     quiet_noise(grid16), on_report=lambda st, tr: min_n.append(tr.last.min_abs_n))
    rho_star = np.sqrt(1.0 - eps * eps)
    last = trace.last
    assert abs(last.min_abs_n - rho_star) < 5e-4
    assert abs(last.max_abs_n - rho_star) < 5e-4
    assert last.max_abs_n - last.min_abs_n < 1e-10  # stays radial
    assert last.max_abs_u < 1e-12                   # constant stress drives no flow
    # at the fixed point 1 - |n|^2 = eps^2 exactly, so the scaled defect
    # norm eps * eps_defect equals |eps^2|_{L2} = 2 pi eps^2
    assert abs(eps * last.eps_defect - 2.0 * np.pi * eps * eps) < 5e-3 * eps * eps
    assert len(min_n) == cfg.n_steps + 1
    assert min(min_n) > 0.5  # sigma2 never in reach


def test_radial_defect_scaling_rate_is_quadratic(grid16):
    eps_list = [0.4, 0.3, 0.2]
    defects = []
    for eps in eps_list:
        cfg = StepperConfig(dt=1e-3, t_end=1.0)
        trace = run_path(circle_state(grid16), cfg, GLParams(epsilon=eps),
                         quiet_noise(grid16))
        defects.append(eps * trace.last.eps_defect)
    fit = fit_rate(eps_list, defects)
    assert 1.95 < fit.rate < 2.05


# -- coupled relaxation families ---------------------------------------------------


def test_coupled_family_rejects_duplicate_epsilons(grid16):
    cfg = StepperConfig(dt=0.01, t_end=0.02)
    with pytest.raises(ValueError):
        run_coupled_family(circle_state(grid16), cfg, [0.2, 0.2],
                           quiet_noise(grid16), n_paths=1)


def test_coupled_family_deterministic_distances_shrink_with_epsilon(grid16):
    """Noise off: members differ only through the penalty strength, and the

    distance to the reference member decreases as epsilon approaches it.
    """
    cfg = StepperConfig(dt=2e-3, t_end=0.5)
    rep = run_coupled_family(circle_state(grid16), cfg, [0.4, 0.2, 0.1],
                             quiet_noise(grid16), n_paths=1, alpha=1.0)
    assert rep.eps_ref == 0.1
    ref = rep.members[0.1]
    assert np.all(ref.sup_dist == 0.0)
    assert np.all(ref.l2_dist == 0.0)
    d_sup = {e: float(rep.members[e].sup_dist[0]) for e in (0.4, 0.2)}
    d_l2 = {e: float(rep.members[e].l2_dist[0]) for e in (0.4, 0.2)}
    assert d_sup[0.4] > d_sup[0.2] > 0.0
    assert d_l2[0.4] > d_l2[0.2] > 0.0
    # defect ceilings are ordered too, and every member stays inside the ball
    defs = [float(rep.members[e].defect_sup[0]) for e in (0.4, 0.2, 0.1)]
    assert defs[0] > defs[1] > defs[2] > 0.0
    for e in (0.4, 0.2, 0.1):
        assert rep.members[e].max_abs_n[0] <= 1.0 + 1e-9


def test_coupled_family_report_structure_and_callback(grid16):
    cfg = StepperConfig(dt=5e-3, t_end=0.025)
    noise = NoiseModel(grid16, seed=3, mode_cutoff=4, h=constant_h(grid16))
    seen = []
    rep = run_coupled_family(circle_state(grid16), cfg, [0.2, 0.1], noise,
                             n_paths=2, alpha=1.0,
                             on_member_report=lambda p, e, r: seen.append((p, e, r.step)))
    assert rep.n_paths == 2 and rep.n_modes == 16
    assert rep.eps_family == (0.2, 0.1)
    assert len(seen) == 2 * 2 * (cfg.n_steps + 1)
    assert (0, 0.2, 0) in seen and (1, 0.1, cfg.n_steps) in seen
    # no covering: every path runs to the horizon
    assert np.all(rep.tau == cfg.t_end)
    # one non-reference member cannot support a distance fit
    assert rep.rate_sup is None and rep.rate_l2 is None
    assert rep.rate_defect is not None and rep.rate_defect.n_points == 2
    m = rep.members[0.2]
    for arr in (m.sup_dist, m.l2_dist, m.residual_ito, m.residual_strat):
        assert arr.shape == (2,) and np.all(np.isfinite(arr)) and np.all(arr > 0.0)
    text = rep.to_text()
    assert "rate_defect" in text and "eps_ref = 0.1" in text


def test_coupled_family_is_reproducible(grid16):
    cfg = StepperConfig(dt=5e-3, t_end=0.02)
    kw = dict(n_paths=2, alpha=1.0)
    noise = NoiseModel(grid16, seed=11, mode_cutoff=4, h=constant_h(grid16))
    a = run_coupled_family(circle_state(grid16), cfg, [0.3, 0.15], noise, **kw)
    b = run_coupled_family(circle_state(grid16), cfg, [0.3, 0.15], noise, **kw)
    for e in (0.3, 0.15):
        assert np.array_equal(a.members[e].sup_dist, b.members[e].sup_dist)
        assert np.array_equal(a.members[e].residual_ito, b.members[e].residual_ito)


# -- independent ensembles ---------------------------------------------------------


def test_run_ensemble_shapes_paths_and_determinism(grid16):
    cfg = StepperConfig(dt=5e-3, t_end=0.05)
    noise = NoiseModel(grid16, seed=5, mode_cutoff=4, h=constant_h(grid16))
    rep = run_ensemble(circle_state(grid16), cfg, GLParams(epsilon=0.3),
                       noise, n_paths=6)
    assert rep.n_paths == 6
    assert rep.sup_energy.shape == (6,)
    for arr in (rep.sup_energy, rep.int_dissipation, rep.balance, rep.residual):
        assert np.all(np.isfinite(arr))
    assert rep.trace_q == noise.trace_q
    assert rep.max_abs_n <= 1.0 + 1e-9
    assert rep.mean_sup_energy >= rep.mean_energy_final
    # distinct path ids produce distinct trajectories (the energy sup itself
    # ties at E(0) here, since this field only dissipates)
    assert len(np.unique(rep.balance)) == 6
    rep2 = run_ensemble(circle_state(grid16), cfg, GLParams(epsilon=0.3),
                        noise, n_paths=6)
    assert np.array_equal(rep.balance, rep2.balance)
    text = rep.to_text()
    assert "paths = 6" in text and "balance mean" in text


def test_run_ensemble_noise_off_balance_is_pure_drift(grid16):
    """Without noise the balance statistic collapses to the deterministic

    energy-identity residual, which the integrator keeps at O(dt^2)."""
    cfg = StepperConfig(dt=1e-3, t_end=0.05)
    rep = run_ensemble(circle_state(grid16), cfg, GLParams(epsilon=0.5),
                       quiet_noise(grid16), n_paths=2)
    assert rep.trace_q == 0.0
    assert np.array_equal(rep.balance, rep.residual)
    assert np.all(np.abs(rep.residual) < 1e-4)


# -- the shared path core ------------------------------------------------------------


def single_mode_h(grid, mag=1.0):
    return DirectorField.from_scalar_axis(grid, mag * np.cos(grid.meshgrid()[0]))


def test_family_member_rows_equal_solo_runs(grid16, monkeypatch):
    """With no CFL halving, every member of a coupled family is the solo run of
    its epsilon on path ``path_id + p``: the NDJSON rows agree byte for byte."""
    import nsgl.experiments as experiments
    from nsgl.io_cli import format_report

    levels = []
    plain_step = experiments.step

    def recording_step(*args, **kwargs):
        out = plain_step(*args, **kwargs)
        levels.append(out[1].level_max)
        return out

    monkeypatch.setattr(experiments, "step", recording_step)
    cfg = StepperConfig(dt=2e-3, t_end=0.02)
    noise = NoiseModel(grid16, seed=17, path_id=5, mode_cutoff=4, h=single_mode_h(grid16))
    assert noise.velocity_on and noise.director_on
    cov = CoveringSet(grid16, np.pi / 4.0)
    eps_family = (0.4, 0.2, 0.1)
    rows = {}
    run_coupled_family(circle_state(grid16), cfg, eps_family, noise, n_paths=2,
                       covering=cov, on_member_report=lambda p, e, r: rows.setdefault(
                           (p, e), []).append(format_report(r)))
    assert sorted(rows) == sorted((p, e) for p in range(2) for e in eps_family)
    for (p, eps), family_rows in rows.items():
        solo = []
        run_path(circle_state(grid16), cfg, GLParams(epsilon=eps),
                 dataclasses.replace(noise, path_id=noise.path_id + p), covering=cov,
                 on_report=lambda st, tr: solo.append(format_report(tr.last)))
        assert len(solo) == cfg.n_steps + 1
        assert family_rows == solo, (p, eps)
    assert levels and max(levels) == 0


def test_family_residuals_equal_fresh_derivative_reference(grid16):
    """The family's limit-equation residuals, built from the derivatives each
    report already computed, equal a reference that transforms lap n, d1 n
    and d2 n of every left-point state afresh, bit for bit."""
    from nsgl.noise import sample_increment
    from nsgl.operators import cross3

    g = grid16
    cfg = StepperConfig(dt=2e-3, t_end=0.012)
    h = single_mode_h(g)
    noise = NoiseModel(g, seed=23, path_id=2, mode_cutoff=4, h=h)
    eps_family = (0.4, 0.2)
    report = run_coupled_family(circle_state(g), cfg, eps_family, noise, n_paths=1)
    for eps in eps_family:
        states = []
        run_path(circle_state(g), cfg, GLParams(epsilon=eps), noise,
                 on_report=lambda st, tr: states.append(st))
        ito = strat = 0.0
        for k, (prev, new) in enumerate(zip(states, states[1:])):
            n_spec = prev.n.spec
            lap = g.to_phys(g.laplacian(n_spec))
            d1 = g.to_phys(g.deriv(n_spec, 1))
            d2 = g.to_phys(g.deriv(n_spec, 2))
            grad_sq = np.sum(d1 * d1 + d2 * d2, axis=0)
            conv = prev.u.phys[0] * d1 + prev.u.phys[1] * d2
            r = (new.n.phys - prev.n.phys) - cfg.dt * (lap + grad_sq * prev.n.phys - conv)
            nxh = cross3(prev.n.phys, h.phys)
            r = r - sample_increment(noise, cfg.dt, k).d_eta * nxh
            r2 = r - cfg.dt * (0.5 * cross3(nxh, h.phys))
            ito += g.l2_norm_phys(r)
            strat += g.l2_norm_phys(r2)
        assert np.max(np.abs(states[-1].u.phys)) > 0.0  # the transport term is live
        assert report.members[eps].residual_ito[0] == ito
        assert report.members[eps].residual_strat[0] == strat


def test_drivers_call_step_once_per_path_step(grid16, monkeypatch):
    """The benchmark times the drivers' step loop through ``nsgl.experiments.step``:
    each driver must call it exactly n_steps x n_paths x n_members times."""
    import nsgl.experiments as experiments

    calls = []
    plain_step = experiments.step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return plain_step(*args, **kwargs)

    monkeypatch.setattr(experiments, "step", counting_step)
    cfg = StepperConfig(dt=1e-3, t_end=0.02)
    noise = NoiseModel(grid16, seed=2, mode_cutoff=4, h=single_mode_h(grid16))
    gl = GLParams(epsilon=0.3)
    run_path(circle_state(grid16), cfg, gl, noise)
    assert len(calls) == cfg.n_steps
    calls.clear()
    run_ensemble(circle_state(grid16), cfg, gl, noise, n_paths=3)
    assert len(calls) == cfg.n_steps * 3
    calls.clear()
    run_coupled_family(circle_state(grid16), cfg, (0.4, 0.2, 0.1), noise, n_paths=2)
    assert len(calls) == cfg.n_steps * 2 * 3
