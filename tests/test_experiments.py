"""Experiment-layer tests: rate fits, radial relaxation, coupled families.

The workhorse fixture is the circle director field (cos x1, sin x1, 0) with
zero velocity and noise disabled.  Its modulus then obeys the scalar ODE
rho' = -rho + (1 - rho^2) rho / eps^2, whose attracting fixed point
rho* = sqrt(1 - eps^2) gives closed-form targets for the defect diagnostics.
"""

import dataclasses
import math

import numpy as np
import pytest

from nsgl.diagnostics import CoveringSet
from nsgl.experiments import (
    MemberStats,
    NumericsError,
    fit_rate,
    resolve_stop_delta,
    run_coupled_family,
    run_ensemble,
    run_path,
)
from nsgl.noise import NoiseModel
from nsgl.stepper import GLParams, SimState, StepperConfig


def quiet_noise(grid, **kw):
    kw.setdefault("velocity_on", False)
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
    return h


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
    st = dataclasses.replace(st, t=0.07, step=7)
    steps = []
    trace = run_path(st, cfg, GLParams(epsilon=0.5), quiet_noise(grid16),
                     on_report=lambda s, tr: steps.append(tr.last.step))
    assert steps == [7, 8, 9, 10]
    assert trace.last.step == 10 and trace.t0 == 0.07
    # already past the horizon: one report, zero steps
    st = dataclasses.replace(st, t=0.15, step=15)
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


def test_a_numerical_failure_names_what_lost_finiteness(grid16):
    """A report's first non-finite value among E, D and max |n| names the
    failure, unless the state's spectra are not finite; those are read only
    once one of the three is not finite."""
    from nsgl.diagnostics import energy_report
    from nsgl.experiments import _check_finite

    state = circle_state(grid16)
    rep = energy_report(state, GLParams(epsilon=0.5))
    _check_finite(rep, state)
    for name in ("energy_E", "enstrophy_D", "max_abs_n"):
        with pytest.raises(NumericsError,
                           match=rf"^report {name} = inf at t=0, from a finite state$"):
            _check_finite(dataclasses.replace(rep, **{name: math.inf}), state)
    with pytest.raises(NumericsError, match="^report enstrophy_D = nan "):
        _check_finite(dataclasses.replace(rep, enstrophy_D=math.nan, max_abs_n=math.inf),
                      state)
    spec = state.spec.copy()
    spec[3, 1, 1] = np.nan
    broken = dataclasses.replace(state, spec=spec)
    _check_finite(rep, broken)
    with pytest.raises(NumericsError, match=r"^state lost finiteness at t=0$"):
        _check_finite(dataclasses.replace(rep, max_abs_n=math.nan), broken)


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
    for arr in (m.sup_dist, m.l2_dist, m.defect_sup):
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
        for f in dataclasses.fields(MemberStats):
            x, y = getattr(a.members[e], f.name), getattr(b.members[e], f.name)
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), (e, f.name)
    assert a.to_text() == b.to_text()


def test_converge_report_prints_five_rows_per_member(grid16):
    """Each member's block of ``to_text`` is its ``[eps = ...]`` head and
    exactly the rows sup_dist, l2_dist, defect_sup, sigma1 and sigma2, in
    that order, one value per path: the labels a reader of the report
    (perfbench's family check among them) parses."""
    cfg = StepperConfig(dt=5e-3, t_end=0.01)
    noise = NoiseModel(grid16, seed=3, mode_cutoff=4, h=constant_h(grid16))
    rep = run_coupled_family(circle_state(grid16), cfg, [0.4, 0.2, 0.1], noise, n_paths=2)
    lines = rep.to_text().splitlines()
    for eps in rep.eps_family:
        head = lines.index(f"[eps = {eps:.17g}]")
        rows = [line.partition(" = ") for line in lines[head + 1:head + 6]]
        assert [label for label, _, _ in rows] == \
            ["  sup_dist", "  l2_dist", "  defect_sup", "  sigma1", "  sigma2"]
        assert all(len(values.split(", ")) == 2 for _, _, values in rows)
    assert sum(line.startswith("  ") for line in lines) == 5 * len(rep.eps_family)


def test_family_rates_are_fitted_one_by_one(grid16):
    """A family whose paths stop at t = 0 (sigma1 fires on the start report
    at a tiny ``stop_delta``) has every distance 0, so no distance rate, but
    its start defects are positive and still give ``rate_defect``."""
    cfg = StepperConfig(dt=5e-3, t_end=0.02)
    noise = NoiseModel(grid16, seed=3, mode_cutoff=4, h=constant_h(grid16))
    rep = run_coupled_family(circle_state(grid16), cfg, [0.4, 0.2, 0.1], noise, n_paths=2,
                             covering=CoveringSet(grid16, np.pi / 4), stop_delta=1e-9)
    assert np.all(rep.tau == 0.0)
    for m in rep.members.values():
        assert np.all(m.sup_dist == 0.0) and np.all(m.l2_dist == 0.0)
        assert np.all(m.defect_sup > 0.0) and np.all(m.sigma1 == 0.0)
    assert rep.rate_sup is None and rep.rate_l2 is None
    assert rep.rate_defect is not None and rep.rate_defect.n_points == 3
    text = rep.to_text()
    assert "rate_defect: rate = " in text and "rate_sup" not in text and "rate_l2" not in text


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
    return mag * np.cos(grid.meshgrid()[0]) * np.ones((3, 1, 1))


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
    assert noise.velocity_on and noise.h is not None
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


def test_ensemble_paths_equal_solo_runs(grid16, monkeypatch):
    """Every path of an ensemble, reported without the state monitors, is
    the full-report solo run on path ``path_id + p``: sup E, E(T), int D,
    the residual, the balance statistic and max |n| agree bit for bit."""
    paths = recording_paths(monkeypatch)
    cfg, gl = StepperConfig(dt=2e-3, t_end=0.02), GLParams(epsilon=0.3)
    noise = NoiseModel(grid16, seed=17, path_id=5, mode_cutoff=4, h=single_mode_h(grid16))
    assert noise.velocity_on and noise.h is not None
    n_paths = 3
    rep = run_ensemble(circle_state(grid16), cfg, gl, noise, n_paths=n_paths)
    traces = [path.trace for path in paths]
    assert len(traces) == n_paths
    monkeypatch.undo()

    def bits(x):
        return np.float64(x).tobytes()

    finals, max_ns = [], []
    for p, ens in enumerate(traces):
        solo = run_path(circle_state(grid16), cfg, gl,
                        dataclasses.replace(noise, path_id=noise.path_id + p))
        assert not np.isnan(solo.last.eps_defect) and np.isnan(ens.last.eps_defect)
        balance = solo.residual + 2.0 * solo.sum_u_dw + 2.0 * solo.sum_grad_cross
        assert solo.sum_u_dw != 0.0 and solo.sum_grad_cross != 0.0
        for got, want in [(rep.sup_energy[p], solo.sup_e), (ens.last.energy_E, solo.last.energy_E),
                          (rep.int_dissipation[p], solo.int_d), (rep.residual[p], solo.residual),
                          (rep.balance[p], balance), (ens.max_n, solo.max_n)]:
            assert bits(got) == bits(want), p
        finals.append(solo.last.energy_E)
        max_ns.append(solo.max_n)
    assert bits(rep.mean_energy_final) == bits(np.mean(finals))
    assert bits(rep.max_abs_n) == bits(max(max_ns))


def test_grouped_ensemble_equals_groups_of_one(grid32, monkeypatch):
    """``run_ensemble`` steps its paths in lockstep groups of
    ``_group_size`` and reports each group with one ``energy_report`` call
    per step; with 3 paths at N = 32 the last group is partial, and the
    report equals that of groups of one bit for bit."""
    import nsgl.experiments as experiments
    from nsgl.diagnostics import energy_report
    from nsgl.grid import SpectralGrid

    assert [experiments._group_size(circle_state(SpectralGrid(n)))
            for n in (16, 32, 64, 128)] == [9, 2, 1, 1]
    sizes = []

    def recording_report(state, *args, **kwargs):
        sizes.append(len(state))
        return energy_report(state, *args, **kwargs)

    cfg, gl = StepperConfig(dt=1e-3, t_end=0.005), GLParams(epsilon=0.3)
    noise = NoiseModel(grid32, seed=23, mode_cutoff=4, h=single_mode_h(grid32))
    monkeypatch.setattr(experiments, "energy_report", recording_report)
    grouped = run_ensemble(circle_state(grid32), cfg, gl, noise, n_paths=3)
    assert sizes == [2] * (cfg.n_steps + 1) + [1] * (cfg.n_steps + 1)
    monkeypatch.setattr(experiments, "_group_size", lambda state: 1)
    alone = run_ensemble(circle_state(grid32), cfg, gl, noise, n_paths=3)
    for name in ("sup_energy", "int_dissipation", "balance", "residual"):
        assert getattr(grouped, name).tobytes() == getattr(alone, name).tobytes(), name
    for name in ("max_abs_n", "mean_energy_final"):
        assert np.float64(getattr(grouped, name)).tobytes() \
            == np.float64(getattr(alone, name)).tobytes(), name
    assert grouped.to_text() == alone.to_text()
    assert len(set(grouped.balance.tolist())) == 3


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


def test_drivers_leave_no_cyclic_garbage(grid16):
    """Each path-step's draws and ledger are freed by reference counting.  A
    reference cycle through them (a step closure that refers to itself, say)
    leaves every step's arrays to the cycle collector, a per-step cost in
    time and peak memory that no output shows."""
    import gc

    cfg = StepperConfig(dt=1e-3, t_end=0.01)
    noise = NoiseModel(grid16, seed=2, mode_cutoff=4, h=single_mode_h(grid16))
    gl = GLParams(epsilon=0.3)
    cov = CoveringSet(grid16, np.pi / 4.0)
    runs = {
        "run_path": lambda: run_path(circle_state(grid16), cfg, gl, noise, covering=cov),
        "run_ensemble": lambda: run_ensemble(circle_state(grid16), cfg, gl, noise, n_paths=3),
        "run_coupled_family": lambda: run_coupled_family(
            circle_state(grid16), cfg, (0.4, 0.2), noise, n_paths=2, covering=cov,
            on_member_report=lambda p, eps, report: None),
    }
    gc.collect()
    gc.disable()
    try:
        for name, run in runs.items():
            run()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_family_draws_each_increment_once_per_step(grid16, monkeypatch):
    """The members of a family share one Brownian path, so each (path, step,
    level, slot) increment is drawn once, however many members there are:
    with every step halved to level 1, a 3-member family on 2 paths draws
    n_steps x 2 substeps x 2 paths increments.  Each member's rows equal
    those of its solo path at the same level, which draws its own."""
    import nsgl.experiments as experiments
    import nsgl.stepper as stepper
    from nsgl.io_cli import format_report

    draws = []
    plain_sample = stepper.sample_increment

    def counting_sample(model, dt, step_index, level=0, slot=0):
        draws.append((model.path_id, step_index, level, slot))
        return plain_sample(model, dt, step_index, level=level, slot=slot)

    monkeypatch.setattr(stepper, "sample_increment", counting_sample)
    monkeypatch.setattr(experiments, "required_level", lambda state, cfg: 1)
    cfg = StepperConfig(dt=2e-3, t_end=0.012)
    noise = NoiseModel(grid16, seed=29, mode_cutoff=4, h=single_mode_h(grid16))
    eps_family = (0.4, 0.2, 0.1)
    rows = {}
    run_coupled_family(circle_state(grid16), cfg, eps_family, noise, n_paths=2,
                       on_member_report=lambda p, e, r: rows.setdefault(
                           (p, e), []).append(format_report(r)))
    assert len(draws) == cfg.n_steps * 2 * 2
    assert sorted(draws) == sorted((p, k, 1, s) for p in range(2)
                                   for k in range(cfg.n_steps) for s in range(2))
    for (p, eps), family_rows in rows.items():
        solo = []
        path = experiments._Path(circle_state(grid16), cfg, GLParams(epsilon=eps),
                                 dataclasses.replace(noise, path_id=p), None, "auto",
                                 lambda st, tr: solo.append(format_report(tr.last)))
        experiments._start([path])
        for _ in range(cfg.n_steps):
            experiments._advance([path], force_level=1)
        assert family_rows == solo, (p, eps)


def recording_paths(monkeypatch):
    """Make every driver's paths record themselves, and their state and
    ledger after each step; returns the list of paths, each with its
    ``states`` and ``ledgers``."""
    import nsgl.experiments as experiments

    paths = []

    class RecordingPath(experiments._Path):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.states, self.ledgers = [], []
            paths.append(self)

        def step(self, *args, **kwargs):
            ledger = super().step(*args, **kwargs)
            self.states.append(self.state)
            self.ledgers.append(ledger)
            return ledger

    monkeypatch.setattr(experiments, "_Path", RecordingPath)
    return paths


def test_family_distances_equal_four_sobolev_norms_bitwise(grid16, monkeypatch):
    """A family member-step takes |c|^2 of its difference to the reference
    once, and its four Sobolev norms read views of that one array.
    ``sup_dist`` and ``l2_dist`` equal, bit for bit, those built from four
    ``sobolev_norm`` calls on the difference's spectra, on a noisy family
    whose first step is CFL-halved."""
    import nsgl.experiments as experiments
    from nsgl.grid import sobolev_norm

    paths = recording_paths(monkeypatch)
    norm_calls = []

    def recording_norm(grid, spec, *args, **kwargs):
        norm_calls.append((spec.base, kwargs.get("squared", False)))
        return sobolev_norm(grid, spec, *args, **kwargs)

    monkeypatch.setattr(experiments, "sobolev_norm", recording_norm)
    monkeypatch.setattr(experiments, "required_level",
                        lambda state, cfg: 1 if state.step == 0 else 0)
    cfg = StepperConfig(dt=2e-3, t_end=0.012)
    noise = NoiseModel(grid16, seed=41, mode_cutoff=4, h=single_mode_h(grid16))
    assert noise.velocity_on
    eps_family, alpha = (0.4, 0.2, 0.1), 0.75
    report = run_coupled_family(circle_state(grid16), cfg, eps_family, noise, n_paths=2,
                                alpha=alpha)
    assert len(paths) == 2 * len(eps_family)
    # 2 paths x 6 steps x 2 non-reference members, 4 norms each
    assert len(norm_calls) == 2 * cfg.n_steps * 2 * 4
    assert all(squared for _, squared in norm_calls)
    for k in range(0, len(norm_calls), 4):
        assert all(base is norm_calls[k][0] for base, _ in norm_calls[k:k + 4])
    for p in range(2):
        member = {path.gl.epsilon: path for path in paths[3 * p:3 * p + 3]}
        for path in member.values():
            assert [ledger.level_max for ledger in path.ledgers] == [1] + [0] * 5
        for eps in (0.4, 0.2):
            sup, l2_sq, l2_prev = 0.0, 0.0, 0.0
            for state, ref in zip(member[eps].states, member[0.1].states):
                assert ref.t <= cfg.t_end
                diff = state.spec - ref.spec
                du, dn = diff[:2], diff[2:]
                sup = max(sup, sobolev_norm(grid16, du, alpha - 1.0, homogeneous=True)
                          + sobolev_norm(grid16, dn, alpha, homogeneous=False))
                d_high_sq = sobolev_norm(grid16, du, alpha, homogeneous=True) ** 2 \
                    + sobolev_norm(grid16, dn, 1.0 + alpha, homogeneous=False) ** 2
                l2_sq += 0.5 * cfg.dt * (l2_prev + d_high_sq)
                l2_prev = d_high_sq
            assert sup > 0.0
            assert report.members[eps].sup_dist[p] == sup, (p, eps)
            assert report.members[eps].l2_dist[p] == np.sqrt(l2_sq), (p, eps)


def test_family_member_residual_reads_nan(grid16, monkeypatch):
    """Family members step without the noise ledger, so a member's balance
    residual reads NaN, never a number missing its noise terms; a solo
    path keeps the ledger, and its residual is a number."""
    import math

    paths = recording_paths(monkeypatch)
    cfg = StepperConfig(dt=2e-3, t_end=0.006)
    noise = NoiseModel(grid16, seed=43, mode_cutoff=4, h=single_mode_h(grid16))
    run_coupled_family(circle_state(grid16), cfg, (0.4, 0.2), noise, n_paths=1)
    assert len(paths) == 2
    for path in paths:
        trace = path.trace
        assert math.isnan(trace.residual)
        assert math.isnan(trace.sum_u_dw) and math.isnan(trace.sum_grad_cross)
        assert math.isnan(trace.sum_cross_sq)
    assert math.isfinite(run_path(circle_state(grid16), cfg, GLParams(epsilon=0.4),
                                  noise).residual)


@pytest.mark.parametrize("driver", ["ensemble", "family"])
def test_a_path_id_overflow_fails_before_any_path_runs(grid16, monkeypatch, driver):
    """Both drivers build every path's noise model before the first path
    runs, so path ids past the 2**64 stream keys fail with no step taken."""
    import nsgl.experiments as experiments

    calls = []
    plain_step = experiments.step

    def counting_step(*args, **kwargs):
        calls.append(1)
        return plain_step(*args, **kwargs)

    monkeypatch.setattr(experiments, "step", counting_step)
    cfg = StepperConfig(dt=1e-3, t_end=0.004)
    noise = NoiseModel(grid16, path_id=2**64 - 2, mode_cutoff=4)
    with pytest.raises(ValueError, match="path_id"):
        if driver == "ensemble":
            run_ensemble(circle_state(grid16), cfg, GLParams(epsilon=0.3), noise, n_paths=3)
        else:
            run_coupled_family(circle_state(grid16), cfg, (0.4, 0.2), noise, n_paths=3)
    assert calls == []
    run_ensemble(circle_state(grid16), cfg, GLParams(epsilon=0.3), noise, n_paths=2)
    assert len(calls) == 2 * cfg.n_steps  # the last two keys run
