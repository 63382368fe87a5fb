"""Energy reports, covering-based local maxima, stop detectors, traces."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import nsgl.experiments as experiments
from nsgl.diagnostics import MONITORS, CoveringSet, EnergyReport, RunTrace, energy_report
from nsgl.experiments import run_path
from nsgl.grid import SpectralGrid, leray_project_spec, random_band_limited
from nsgl.noise import NoiseModel
from nsgl.stepper import GLParams, SimState, StepperConfig, StepLedger, step

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
    u = circle_state(grid32).u_phys
    zero = np.zeros((3, 32, 32))
    rep = energy_report(SimState.from_arrays(grid32, u, zero), GLParams(epsilon=1.0))
    assert rep.gl_mass == pytest.approx(PI**2, rel=1e-14)
    half = np.full((32, 32), 0.5) * np.array([1.0, 0.0, 0.0])[:, None, None]
    state = SimState.from_arrays(grid32, u, half)
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
    # the floor is the grid spacing, itself admitted
    with pytest.raises(ValueError, match=r"stops\.radius"):
        CoveringSet(grid32, np.nextafter(grid32.dx, 0.0))
    assert CoveringSet(grid32, grid32.dx).n_centers == 23 * 23
    # at the floor N = 64 has 46^2 centers over 64^2 points; the dense
    # (M, N, N) build traced 78 MB there
    grid = SpectralGrid(64)
    tracemalloc.start()
    try:
        CoveringSet(grid, grid.dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6


def _wrap_dist_sq(grid, centers) -> np.ndarray:
    """Squared torus distance from each center (rows of an (M, 2) array) to
    every grid point, shape (M, N, N): the dense reference of the covering."""
    c = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    d1 = np.abs(grid.x1[None, :] - c[:, 0:1])
    d1 = np.minimum(d1, 2.0 * np.pi - d1)
    d2 = np.abs(grid.x2[None, :] - c[:, 1:2])
    d2 = np.minimum(d2, 2.0 * np.pi - d2)
    return d1[:, :, None] ** 2 + d2[:, None, :] ** 2


def dense_covering(cov, chunk=128):
    """The arcs and the coverage defect of ``cov`` from the dense distance
    array, as CoveringSet built them from it, ``chunk`` centers at a time:
    the arc of a (center, row) starts at the point inside whose left
    neighbour is not (a full or empty row from 0)."""
    n, arcs, nearest = cov.grid.n_modes, [], np.inf
    for lo in range(0, cov.n_centers, chunk):
        dist = _wrap_dist_sq(cov.grid, cov.centers[lo:lo + chunk])
        nearest = np.minimum(nearest, np.min(dist, axis=0))
        inside = dist <= (2.0 * cov.radius) ** 2
        count = inside.sum(axis=2, dtype=np.int32)
        start = np.argmax(np.roll(inside, 1, axis=2) < inside, axis=2)
        end = start + count
        wraps = end > n
        arcs.append(np.arange(n) * (n + 1) + np.stack([np.where(wraps, end - n, end), start,
                                                       np.where(wraps, n, 0)]))
    return np.concatenate(arcs, axis=1), float(np.sqrt(np.max(nearest)))


@pytest.mark.parametrize("n", [16, 32, 48, 64, 96, 128])
def test_covering_equals_the_dense_construction(n):
    """The arcs built from the (m, N) line table, and the coverage defect,
    are bitwise those of the dense (M, N, N) comparison: at the floor dx,
    one ulp above it, at pi/8, pi/4, pi/3, pi/2 (full and wrapping arcs)
    and at seeded random radii.  Radii below 0.1 are skipped at N >= 96,
    where the dense reference itself is costly."""
    grid = SpectralGrid(n)
    radii = [grid.dx, np.nextafter(grid.dx, np.inf), PI / 8.0, PI / 4.0, PI / 3.0, PI / 2.0]
    radii += list(np.random.default_rng(n).uniform(grid.dx, PI / 2.0, 6))
    for radius in radii:
        if n >= 96 and radius < 0.1:
            continue
        cov = CoveringSet(grid, radius)
        arcs, defect = dense_covering(cov)
        assert cov.arcs.dtype == arcs.dtype and np.array_equal(cov.arcs, arcs), radius
        assert cov.coverage_defect() == defect, radius


def test_report_local_maxima_uniform_field(grid64):
    state = circle_state(grid64)
    cov = CoveringSet(grid64, PI / 4.0)
    rep = energy_report(state, GLParams(epsilon=0.5), cov)
    # masks use radius 2R; uniform integrand = 1
    expect = PI * (PI / 2.0) ** 2
    assert rep.local_energy_max == pytest.approx(expect, rel=0.05)
    assert rep.local_grad_max == pytest.approx(expect, rel=0.05)
    assert rep.local_energy_max <= rep.energy_E + 1e-9


def dense_local_maxima(cov, integrand):
    """The reference: one float64 0/1 mask row of N*N points per center,
    those within 2R, times the quadrature-weighted integrand."""
    inside = _wrap_dist_sq(cov.grid, cov.centers) <= (2.0 * cov.radius) ** 2
    masks = inside.reshape(cov.n_centers, -1).astype(np.float64)
    return float(np.max(masks @ (integrand.ravel() * cov.grid.quad_weight)))


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("radius", [PI / 8.0, PI / 4.0, PI / 2.0])
def test_local_maxima_match_the_dense_mask_reference(n, radius):
    """Row-arc prefix sums give the dense mask product to 1e-14 relative on
    random non-negative integrands, spread out and concentrated.  At pi/2
    some arcs are full rows and some wrap around x2 = 0."""
    grid = SpectralGrid(n)
    cov = CoveringSet(grid, radius)
    hi, lo, wrap = cov.arcs % (n + 1)
    length, wraps = hi - lo + wrap, wrap == n
    if radius == PI / 2.0:
        assert np.any(length == n) and np.any(wraps & (length < n))
    rng = np.random.default_rng(n)
    x1, x2 = grid.meshgrid()
    for _ in range(4):
        spread = rng.random((n, n)) ** rng.uniform(1.0, 4.0)
        c1, c2 = rng.uniform(0.0, 2.0 * PI, 2)
        bump = np.exp(-8.0 * ((np.sin((x1 - c1) / 2)) ** 2 + np.sin((x2 - c2) / 2) ** 2))
        for f in (spread, bump):
            ref = dense_local_maxima(cov, f)
            assert abs(cov.local_maxima(f) - ref) <= 1e-14 * ref


def test_report_reuses_w_and_u_squared_bitwise(grid32, rng, make_state):
    """energy_report takes the penalty from w = |n|^2 and reuses sum u^2 for
    u_sq, max |u| and the local energy density; the expressions it
    replaced, kept here on d1 n, d2 n and lap n transformed afresh from
    n's spectrum, give the same bits."""
    g = grid32
    u_spec = leray_project_spec(g, g.to_spec(random_band_limited(g, 2, 5, rng, 0.7)))
    n_phys = random_band_limited(g, 3, 5, rng, 0.4) + np.array([0.0, 0.0, 1.0])[:, None, None]
    state = make_state(g, u_spec, n_phys)
    gl, cov = GLParams(epsilon=0.3), CoveringSet(g, PI / 4.0)
    rep = energy_report(state, gl, cov)
    n_spec = state.n_spec
    d1, d2 = (g.to_phys(g.deriv(n_spec, axis)) for axis in (1, 2))
    lap_n = g.to_phys(g.laplacian(n_spec))
    u_phys = state.u_phys
    gn2 = np.sum(np.stack([d1, d2]) ** 2, axis=(0, 1))
    penalty = (1.0 - (n_phys * n_phys).sum(axis=0)) * n_phys / gl.epsilon**2  # f(n)
    relax_sq = g.integrate(np.sum((lap_n + penalty) ** 2, axis=0))
    grad_u_sq = (2.0 * PI) ** 2 * g.spec_sum(g.k2 * np.abs(u_spec) ** 2)
    assert rep.gl_mass > 1e-3
    assert rep.enstrophy_D == grad_u_sq + relax_sq
    assert rep.u_sq == g.integrate(np.sum(u_phys**2, axis=0))
    assert rep.max_abs_u == float(np.max(np.sqrt(np.sum(u_phys**2, axis=0))))
    defect = 1.0 - np.sum(n_phys**2, axis=0)
    e_point = np.sum(u_phys**2, axis=0) + gn2 + defect**2 / (2.0 * gl.epsilon**2)
    assert rep.local_energy_max == cov.local_maxima(e_point)


@pytest.mark.parametrize("n", [16, 32, 128])
def test_gradient_integrals_come_off_the_half_spectrum(n, make_state):
    """Parseval: the report's int |grad n|^2 and (1/eps) |grad |n|^2|, sums
    over half spectra, equal the grid quadrature of the derivatives sent
    back to the grid, to 1e-14 relative, on a director with content up to
    the Nyquist lines (e3 plus white noise, not band-limited).  ``grad_n_L4``
    reads grad n pointwise, so it is NaN without a covering and finite with
    one, where every other field keeps its bits."""
    g = SpectralGrid(n)
    rng = np.random.default_rng(11 * n)
    u_spec = leray_project_spec(g, g.to_spec(random_band_limited(g, 2, 5, rng, 0.5)))
    n_phys = 0.3 * rng.standard_normal((3, n, n)) + np.array([0.0, 0.0, 1.0])[:, None, None]
    state = make_state(g, u_spec, n_phys)
    gl = GLParams(epsilon=0.3)
    rep = energy_report(state, gl)
    grad_n_sq = g.integrate(np.square(g.to_phys(g.grad_c * state.n_spec)))
    w = np.square(n_phys).sum(axis=0)
    grad_w_sq = g.integrate(np.square(g.to_phys(g.grad_c[:, 0] * g.to_spec(w))))
    assert rep.grad_n_sq == pytest.approx(grad_n_sq, rel=1e-14, abs=0.0)
    assert rep.eps_grad_defect == pytest.approx(math.sqrt(grad_w_sq) / gl.epsilon,
                                                rel=1e-14, abs=0.0)
    assert rep.energy_E == pytest.approx(rep.u_sq + grad_n_sq + 2.0 * rep.gl_mass,
                                         rel=1e-14, abs=0.0)
    covered = energy_report(state, gl, CoveringSet(g, radius=np.pi / 8))
    assert math.isnan(rep.grad_n_L4) and math.isfinite(covered.grad_n_L4)
    assert covered.grad_n_L4 > 0.0
    for f in dataclasses.fields(EnergyReport):
        if f.name not in ("grad_n_L4", "local_energy_max", "local_grad_max"):
            assert np.float64(getattr(covered, f.name)).tobytes() == \
                np.float64(getattr(rep, f.name)).tobytes(), f.name


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_report_without_monitors_keeps_every_other_field_bitwise(n, make_state):
    """``monitors=False`` leaves the five state monitors at NaN and every
    other field, the ones ``RunTrace`` folds among them, at the full
    report's bits.  N = 64 and 128 pack the inverse stage into other calls
    than N = 16 and 32."""
    g = SpectralGrid(n)
    rng = np.random.default_rng(n)
    u_spec = leray_project_spec(g, g.to_spec(random_band_limited(g, 2, 5, rng, 0.7)))
    n_phys = random_band_limited(g, 3, 5, rng, 0.4) + np.array([0.0, 0.0, 1.0])[:, None, None]
    state = make_state(g, u_spec, n_phys, t=0.25, step=3)
    gl = GLParams(epsilon=0.3)
    full = energy_report(state, gl)
    rep = energy_report(state, gl, monitors=False)
    assert set(MONITORS) == {"eps_defect", "eps_grad_defect", "min_abs_n", "max_abs_u",
                             "div_defect"}
    for f in dataclasses.fields(EnergyReport):
        got = getattr(rep, f.name)
        if f.name in MONITORS:
            assert math.isnan(got) and not math.isnan(getattr(full, f.name)), f.name
        else:
            assert np.float64(got).tobytes() == np.float64(getattr(full, f.name)).tobytes(), \
                f.name
    assert rep.energy_E > 0.0 and math.isnan(rep.grad_n_L4) and rep.lambda1 > 0.0  # no covering


@pytest.mark.parametrize("n", [16, 32, 128])
def test_group_report_equals_one_report_per_state(n, make_state):
    """``energy_report`` over a group of states, each on its own epsilon,
    gives every state the report of a call on it alone, bit for bit in every
    field, with and without the monitors and with a covering.  A group of
    one is the single call."""
    g = SpectralGrid(n)
    rng = np.random.default_rng(7 * n)
    e3 = np.array([0.0, 0.0, 1.0])[:, None, None]
    states = [make_state(g, leray_project_spec(g, g.to_spec(random_band_limited(
                  g, 2, 5, rng, 0.2 + 0.3 * p))),
                  random_band_limited(g, 3, 5, rng, 0.4) + e3, t=0.25 * p, step=p)
              for p in range(3)]
    gls = [GLParams(epsilon=e) for e in (0.3, 0.17, 0.45)]
    cov = CoveringSet(g, radius=np.pi / 8)

    def bits(rep):
        return [np.float64(getattr(rep, f.name)).tobytes()
                for f in dataclasses.fields(EnergyReport)]

    for monitors in (True, False):
        for covering in (None, cov):
            reps = energy_report(states, gls, covering, monitors=monitors)
            assert len(reps) == len(states)
            for p, (state, gl) in enumerate(zip(states, gls)):
                one = energy_report(state, gl, covering, monitors=monitors)
                assert bits(reps[p]) == bits(one), (monitors, covering, p)
                assert math.isnan(one.eps_defect) != monitors
                assert math.isnan(one.local_energy_max) == (covering is None)
                [alone] = energy_report([state], [gl], covering, monitors=monitors)
                assert bits(alone) == bits(one)
    shared = energy_report(states, gls[0])
    assert [bits(r) for r in shared] == [bits(energy_report(s, gls[0])) for s in states]
    with pytest.raises(ValueError, match="GLParams"):
        energy_report(states, gls[:2])


@pytest.mark.parametrize("paths", [1, 2])
def test_report_derivative_multiplies_stay_off_numpy_buffers(paths, grid32, make_state,
                                                             monkeypatch):
    """At N = 32 the report's derivative multiplies (d1 n, d2 n, lap n of
    each state, as a report with a covering takes them) write contiguous
    parts of the back stack from contiguous operands, for one state and for
    a group of 2 states.  Each traces
    at most 32 KiB: 27,704 B measured, the 3-slice buffer numpy keeps for
    the (1, N, N/2+1) multiplier it broadcasts over the 3 components.  The
    one broadcast call over every state and kind it replaces traced
    158,168 B for one state and 236,504 B for two (76.5 KiB of results per
    state)."""
    import nsgl.diagnostics as diagnostics

    g = grid32
    rng = np.random.default_rng(3)
    e3 = np.array([0.0, 0.0, 1.0])[:, None, None]
    states = [make_state(g, leray_project_spec(g, g.to_spec(random_band_limited(
                  g, 2, 5, rng, 0.3))), random_band_limited(g, 3, 5, rng, 0.4) + e3)
              for _ in range(paths)]
    traced, written = [], []

    class Numpy:  # numpy, with each multiply of a state's spectra traced
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def multiply(*args, **kwargs):
            if not any(np.shares_memory(args[1], s.spec) for s in states):
                return np.multiply(*args, **kwargs)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = np.multiply(*args, **kwargs)
            traced.append(tracemalloc.get_traced_memory()[1] - base)
            written.append(out.size)
            return out

    gl, cov = GLParams(epsilon=0.3), CoveringSet(g, np.pi / 8)
    expected = [energy_report(s, gl, cov) for s in states]
    monkeypatch.setattr(diagnostics, "np", Numpy())
    tracemalloc.start()
    try:
        reps = energy_report(states, gl, cov) if paths > 1 \
            else [energy_report(states[0], gl, cov)]
    finally:
        tracemalloc.stop()
    assert reps == expected
    assert sum(written) == 9 * paths * 32 * 17
    assert 0 < max(traced) <= 32 * 1024, traced


def test_only_the_ensemble_reports_without_monitors(grid16, monkeypatch):
    """``run_ensemble`` reports every path-step without the state monitors,
    the two paths of its group in one call per step; ``run_path`` and the
    family members keep the full report, one state per call."""
    seen = []

    def recording_report(state, *args, **kwargs):
        states = [state] if isinstance(state, SimState) else list(state)
        seen.append([(kwargs.get("monitors", True), s.step) for s in states])
        return energy_report(state, *args, **kwargs)

    monkeypatch.setattr(experiments, "energy_report", recording_report)
    x1, _ = grid16.meshgrid()
    state = SimState.from_arrays(grid16, np.zeros((2, 16, 16)),
                                 np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)]))
    cfg, gl = StepperConfig(dt=5e-3, t_end=0.01), GLParams(epsilon=0.3)
    noise = NoiseModel(grid16, seed=9, mode_cutoff=4)
    experiments.run_ensemble(state, cfg, gl, noise, n_paths=2)
    assert seen == [[(False, k), (False, k)] for k in range(3)]
    seen.clear()
    run_path(state, cfg, gl, noise)
    experiments.run_coupled_family(state, cfg, (0.3, 0.2), noise, n_paths=1)
    assert seen == [[(True, k)] for k in range(3)] + [[(True, 0)]] * 2 \
        + [[(True, k)] for k in (1, 1, 2, 2)]


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
                       h=np.cos(x1) * np.ones((3, 1, 1)))
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
