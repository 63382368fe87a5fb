"""Exact substep kernels, splitting order, CFL handling, reproducibility."""

import dataclasses
import math
import types

import numpy as np
import pytest

import nsgl.experiments as experiments
import nsgl.grid
from nsgl.diagnostics import CoveringSet, energy_report
from nsgl.grid import SpectralGrid, leray_project_spec, random_band_limited
from nsgl.noise import NoiseModel, sample_increment
from nsgl.stepper import (
    CflError,
    GLParams,
    SimState,
    StepperConfig,
    diffuse_spec,
    gl_reaction_phys,
    midpoint_exchange,
    required_level,
    rotate_phys,
    step,
)


def quiet_noise(grid, **kw):
    """Noise model with both channels disabled (streams still deterministic)."""
    kw.setdefault("mode_cutoff", 4)
    return NoiseModel(grid=grid, velocity_on=False, h=None, **kw)


def test_stepper_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        StepperConfig(dt=1e-3, t_end=1.0, cfl_safety=0.0)
    assert StepperConfig(dt=1e-3, t_end=0.25).n_steps == 250


def test_sim_state_stacks_are_read_only_and_shape_checked(grid16, rng):
    """A state holds its two stacks read-only and refuses any other shape or
    dtype; ``from_arrays`` keeps the grid values as given, with their
    spectra beside them, at t = 0, step 0, and refuses 3 + 2 components."""
    u, n = rng.standard_normal((2, 16, 16)), rng.standard_normal((3, 16, 16))
    state = SimState.from_arrays(grid16, u, n)
    assert (state.t, state.step, state.grid) == (0.0, 0, grid16)
    assert np.array_equal(state.u_phys, u) and np.array_equal(state.n_phys, n)
    assert state.spec.tobytes() == grid16.to_spec(np.concatenate([u, n])).tobytes()
    assert np.array_equal(state.u_spec, state.spec[:2])
    assert np.array_equal(state.n_spec, state.spec[2:])
    u[:] = 0.0  # the state holds its own copy
    assert state.u_phys.any()
    for view in (state.spec, state.phys, state.u_spec, state.n_spec,
                 state.u_phys, state.n_phys):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="expected u"):
        SimState.from_arrays(grid16, n, u)
    bad = [("spec", state.spec[:4]), ("spec", np.zeros((5, 16, 16), complex)),
           ("phys", state.phys[:, :8]), ("phys", state.phys.astype(np.float32)),
           ("spec", np.zeros((5, 32, 17), complex))]
    for name, arr in bad:
        with pytest.raises(ValueError, match=f"SimState.{name}"):
            dataclasses.replace(state, **{name: arr})


def test_step_clock_rule():
    """``StepperConfig.on_clock`` is the one rule for a time on the step
    clock: t_end in the constructor and a resumed checkpoint's t."""
    cfg = StepperConfig(dt=0.1, t_end=0.3)
    assert cfg.on_clock(0.30000000000000004, 3) and cfg.on_clock(0.0, 0)
    assert not cfg.on_clock(0.3 + 2e-9, 3) and not cfg.on_clock(0.3, 2)
    assert cfg.on_clock(1e3 + 5e-7, 10**4) and not cfg.on_clock(1e3 + 2e-6, 10**4)
    for t in (math.nan, math.inf, -math.inf):  # abs(inf - x) <= 1e-9 * inf holds
        assert not cfg.on_clock(t, 3) and not cfg.on_clock(t, 5)
    with pytest.raises(ValueError, match="whole number"):
        StepperConfig(dt=0.1, t_end=0.35)


def test_diffusion_substep_is_exact(grid32):
    g = grid32
    x1, x2 = g.meshgrid()
    u0 = np.stack([np.sin(3.0 * x2), np.zeros_like(x2)])
    n0 = np.stack([np.cos(2.0 * x1), np.zeros_like(x1), np.ones_like(x1)])
    state = SimState.from_arrays(g, u0, n0)
    dt = 0.37
    u_out = g.to_phys(diffuse_spec(g, state.u_spec, dt))
    n_out = g.to_phys(diffuse_spec(g, state.n_spec, dt))
    assert np.allclose(u_out, np.exp(-9.0 * dt) * u0, atol=1e-14)
    expect_n = np.stack([np.exp(-4.0 * dt) * n0[0], np.zeros_like(x1), n0[2]])
    assert np.allclose(n_out, expect_n, atol=1e-14)


def test_diffusion_multiplier_is_computed_once_with_the_same_bits(grid32, rng):
    """diffuse_spec takes exp(-|k|^2 dt) in complex128 from a per-(grid, dt)
    cache: the float expression it replaced, kept here, gives the same bytes
    on every call, signed zeros included, also for another grid object of
    the same size."""
    spec = rng.standard_normal((3, *grid32.spec_shape)) \
        + 1j * rng.standard_normal((3, *grid32.spec_shape))
    spec[0, 0, :4] = [0.0, -0.0, complex(-0.0, 0.0), complex(0.0, -0.0)]
    for dt in (5e-4, 1e-3 / 2, 1e-3 / 4, 0.37):
        for grid in (grid32, SpectralGrid(32), grid32):
            got = diffuse_spec(grid, spec, dt)
            assert got.tobytes() == (spec * np.exp(-grid.k2 * dt)).tobytes()
    from nsgl.stepper import _heat_multiplier
    assert _heat_multiplier(grid32, 0.37).dtype == np.complex128


def rk4_gl_oracle(n0, dt, epsilon, n_sub=8192):
    """Reference integration of n' = (1/eps^2)(1 - |n|^2) n."""
    y = np.array(n0, dtype=np.float64)
    h = dt / n_sub

    def f(v):
        return (1.0 - np.sum(v * v, axis=0)) * v / epsilon**2

    for _ in range(n_sub):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_gl_reaction_matches_ode_oracle():
    rng = np.random.default_rng(42)
    dirs = rng.standard_normal((3, 40))
    dirs /= np.sqrt(np.sum(dirs**2, axis=0))
    mags = np.linspace(0.0, 1.25, 40)
    n0 = (dirs * mags)[:, :, None]  # fake (3, N, 1) field
    for ratio in (0.1, 1.0, 5.0):  # dt / eps^2
        eps = 0.5
        dt = ratio * eps**2
        exact = gl_reaction_phys(n0, dt, eps)
        ref = rk4_gl_oracle(n0, dt, eps)
        assert np.max(np.abs(exact - ref)) < 1e-10


def test_gl_reaction_invariants():
    rng = np.random.default_rng(3)
    d = rng.standard_normal((3, 16))
    unit = d / np.sqrt(np.sum(d * d, axis=0))
    out = gl_reaction_phys(unit[:, :, None], 0.7, 0.2)
    assert np.allclose(out, unit[:, :, None], atol=1e-15)
    # a field whose |n|^2 is exactly 1.0 is a bitwise fixed point
    e3 = np.zeros((3, 5, 5))
    e3[2] = 1.0
    assert np.array_equal(gl_reaction_phys(e3, 0.7, 0.2), e3)
    small = 0.5 * unit[:, :, None]
    big = 1.5 * unit[:, :, None]
    assert np.all(np.sum(gl_reaction_phys(small, 0.1, 0.3) ** 2, axis=0)
                  > np.sum(small**2, axis=0))
    assert np.all(np.sum(gl_reaction_phys(big, 0.1, 0.3) ** 2, axis=0)
                  < np.sum(big**2, axis=0))
    # direction is preserved
    out = gl_reaction_phys(small, 0.25, 0.3)
    cosines = np.sum(out * small, axis=0) / np.sqrt(
        np.sum(out**2, axis=0) * np.sum(small**2, axis=0))
    assert np.allclose(cosines, 1.0, atol=1e-14)
    # zero stays zero even for stiff steps that underflow the decay factor
    zero = np.zeros((3, 4, 4))
    assert np.array_equal(gl_reaction_phys(zero, 1000.0, 0.05), zero)


def test_rotation_quarter_turn_example():
    n = np.array([1.0, 0.0, 0.0])[:, None, None]
    axis = np.array([0.0, 0.0, 1.0])[:, None, None]
    mag = np.ones((1, 1))
    out = rotate_phys(n, axis, mag, np.pi / 2.0)
    assert np.allclose(out[:, 0, 0], [0.0, -1.0, 0.0], atol=1e-15)
    # consistency with the generator: d/deta (n rotated) at 0 equals n x h
    d_eta = 1e-6
    out_small = rotate_phys(n, axis, mag, d_eta)
    deriv = (out_small - n) / d_eta
    assert np.allclose(deriv[:, 0, 0], [0.0, -1.0, 0.0], atol=1e-5)


def test_rotation_isometry_and_inverse(grid32, rng, make_director):
    n = make_director(grid32, rng, k_max=5, amplitude=0.8)
    h = make_director(grid32, rng, k_max=5, amplitude=1.0)
    mag = np.sqrt(np.sum(h**2, axis=0))
    unit = h / np.where(mag > 0.0, mag, 1.0)
    fwd = rotate_phys(n, unit, mag, 0.63)
    assert np.allclose(np.sum(fwd**2, axis=0), np.sum(n**2, axis=0), atol=1e-13)
    back = rotate_phys(fwd, unit, mag, -0.63)
    assert np.allclose(back, n, atol=1e-13)


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("profile", ["constant", "single_mode"])
def test_rotation_trig_on_the_distinct_values_of_h_keeps_the_bits(n, profile, rng,
                                                                  make_director):
    """``NoiseModel`` keeps the distinct values of |h|, at most N for either
    profile, and the rotation that takes its trig on them and gathers it
    onto the grid is byte-equal to full-grid trig, also written in place."""
    g = SpectralGrid(n)
    noise = NoiseModel(grid=g, h=scalar_h(g, profile))
    mag = np.sqrt(np.sum(noise.h**2, axis=0))
    assert len(noise.h_mag_values) <= n
    assert np.array_equal(noise.h_mag_values[noise.h_mag_index], mag)
    n_phys = make_director(g, rng, k_max=5, amplitude=0.8)
    for d_eta in (0.63, -1e-3, 7.25):
        full = rotate_phys(n_phys, noise.h_unit, mag, d_eta)
        args = (noise.h_unit, noise.h_mag_values, d_eta)
        got = rotate_phys(n_phys, *args, h_index=noise.h_mag_index)
        assert got.tobytes() == full.tobytes()
        in_place = n_phys.copy()
        rotate_phys(in_place, *args, out=in_place, h_index=noise.h_mag_index)
        assert in_place.tobytes() == full.tobytes()


def test_taylor_green_full_step_reduces_to_heat_decay(grid32):
    """TG velocity with constant director: every coupling term vanishes."""
    g = grid32
    x1, x2 = g.meshgrid()
    amp = 0.5
    u0 = amp * np.stack([np.cos(x1) * np.sin(x2), -np.sin(x1) * np.cos(x2)])
    n0 = np.zeros((3, 32, 32))
    n0[2] = 1.0
    state = SimState.from_arrays(g, u0, n0)
    cfg = StepperConfig(dt=0.01, t_end=0.1)
    noise = quiet_noise(g)
    gl = GLParams(epsilon=0.4)
    for _ in range(cfg.n_steps):
        state, _ = step(state, cfg, gl, noise)
    expect = np.exp(-2.0 * cfg.t_end) * u0
    err = np.max(np.abs(state.u_phys - expect)) / amp
    assert err < 1e-6
    assert np.max(np.abs(state.n_phys - n0)) < 1e-12


def coupled_initial_state(grid, seed=7):
    """A solenoidal u given by its half spectra and a unit n given by its
    grid values, each stacked beside its transform."""
    rng = np.random.default_rng(seed)
    u_spec = leray_project_spec(grid, grid.to_spec(random_band_limited(grid, 2, 4, rng, 0.4)))
    pert = random_band_limited(grid, 3, 4, rng, 0.3)
    pert[2] += 1.0
    n_phys = pert / np.sqrt(np.sum(pert**2, axis=0))
    return SimState(t=0.0, step=0, grid=grid,
                    spec=np.concatenate([u_spec, grid.to_spec(n_phys)]),
                    phys=np.concatenate([grid.to_phys(u_spec), n_phys]))


def run_to(state, dt, t_end, grid):
    cfg = StepperConfig(dt=dt, t_end=t_end)
    noise = quiet_noise(grid)
    gl = GLParams(epsilon=0.5)
    for _ in range(cfg.n_steps):
        state, _ = step(state, cfg, gl, noise)
    return state


def state_distance(a, b):
    g = a.grid
    return g.l2_norm_phys(a.u_phys - b.u_phys) + g.l2_norm_phys(a.n_phys - b.n_phys)


def test_strang_self_convergence_second_order(grid32):
    state0 = coupled_initial_state(grid32)
    t_end = 0.08
    dts = [8e-3, 4e-3, 2e-3, 1e-3]
    finals = [run_to(state0, dt, t_end, grid32) for dt in dts]
    errs = [state_distance(a, b) for a, b in zip(finals[:-1], finals[1:])]
    ratios = [e0 / e1 for e0, e1 in zip(errs[:-1], errs[1:])]
    assert all(r > 3.3 for r in ratios), (errs, ratios)


def test_exchange_stage_local_order_three(grid32):
    """One midpoint substep vs two at half width: defect falls 8x per halving.

    The clean local order holds on dealiased states; out-of-mask content is
    truncated once per application, which is a spatial effect, so the input
    is projected into the mask first.
    """
    g = grid32
    raw = coupled_initial_state(g)
    spec0 = g.dealias(raw.spec)
    dt = 4e-3

    def one_vs_two(h):
        big = midpoint_exchange(g, spec0, h)
        half = midpoint_exchange(g, midpoint_exchange(g, spec0, h / 2), h / 2)
        return sum(g.l2_norm_phys(g.to_phys(big[part]) - g.to_phys(half[part]))
                   for part in (slice(0, 2), slice(2, 5)))  # u, then n

    d1 = one_vs_two(dt)
    d2 = one_vs_two(dt / 2)
    assert 6.0 < d1 / d2 < 10.0, (d1, d2)


def test_cfl_splitting(grid32):
    g = grid32
    _, x2 = g.meshgrid()
    u0 = 50.0 * np.stack([np.sin(x2), np.zeros_like(x2)])
    n0 = np.zeros((3, 32, 32))
    n0[2] = 1.0
    state = SimState.from_arrays(g, u0, n0)
    cfg = StepperConfig(dt=0.01, t_end=0.01)
    lvl = required_level(state, cfg)
    assert lvl >= 2
    noise = quiet_noise(g)
    gl = GLParams(epsilon=0.5)
    new, ledger = step(state, cfg, gl, noise)
    assert ledger.level_max >= lvl
    assert ledger.n_substeps >= 2**lvl
    assert new.t == pytest.approx(0.01)
    assert new.step == 1
    tight = StepperConfig(dt=0.01, t_end=0.01, max_halvings=1)
    with pytest.raises(CflError):
        step(state, tight, gl, noise)


def test_cfl_limit_is_one_rule_for_level_and_split(grid32):
    """required_level and the unforced split agree at rest, at the CFL limit
    itself (no halving) and one ulp above it (one halving)."""
    g = grid32
    _, x2 = g.meshgrid()
    n0 = np.zeros((3, 32, 32))
    n0[2] = 1.0
    noise = quiet_noise(g)
    gl = GLParams(epsilon=0.5)

    def level_and_substeps(u0, dt):
        state = SimState.from_arrays(g, u0, n0)
        cfg = StepperConfig(dt=dt, t_end=dt)
        _, ledger = step(state, cfg, gl, noise)
        return required_level(state, cfg), ledger.level_max, ledger.n_substeps

    assert level_and_substeps(np.zeros((2, 32, 32)), 1.0) == (0, 0, 1)
    u0 = 3.0 * np.stack([np.sin(x2), np.zeros_like(x2)])
    limit = 0.5 * g.dx / float(np.max(np.abs(u0)))
    assert level_and_substeps(u0, limit) == (0, 0, 1)
    assert level_and_substeps(u0, np.nextafter(limit, 1.0)) == (1, 1, 2)


def test_force_level_layout(grid32):
    state = coupled_initial_state(grid32)
    cfg = StepperConfig(dt=2e-3, t_end=2e-3)
    noise = quiet_noise(grid32)
    gl = GLParams(epsilon=0.5)
    plain, led0 = step(state, cfg, gl, noise)
    forced, led1 = step(state, cfg, gl, noise, force_level=0)
    assert np.array_equal(plain.phys, forced.phys)
    assert led0.n_substeps == led1.n_substeps == 1
    _, led2 = step(state, cfg, gl, noise, force_level=2)
    assert led2.n_substeps == 4 and led2.level_max == 2


def test_step_bitwise_reproducible_with_noise(grid32):
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=9, path_id=1, h=scalar_h(g, "constant"))
    state = coupled_initial_state(g)
    cfg = StepperConfig(dt=1e-3, t_end=5e-3)
    gl = GLParams(epsilon=0.4)

    def advance():
        s = state
        for _ in range(cfg.n_steps):
            s, _ = step(s, cfg, gl, noise)
        return s

    a = advance()
    b = advance()
    assert np.array_equal(a.phys, b.phys)


def test_rotation_applied_only_when_director_on(grid32):
    """``h = None`` is the one switch of the director noise."""
    g = grid32
    h = np.ones((3, 32, 32))
    state = coupled_initial_state(g)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    gl = GLParams(epsilon=0.4)
    on = NoiseModel(grid=g, mode_cutoff=4, seed=2, velocity_on=False, h=h)
    off = NoiseModel(grid=g, mode_cutoff=4, seed=2, velocity_on=False, h=None)
    s_on, led_on = step(state, cfg, gl, on)
    s_off, led_off = step(state, cfg, gl, off)
    assert not np.array_equal(s_on.n_phys, s_off.n_phys)
    # constant-axis rotation leaves grad n . grad n invariant, so the stress
    # and hence u agree to roundoff (not bitwise: the algebra reorders)
    assert np.allclose(s_on.u_phys, s_off.u_phys, atol=1e-12)
    assert led_off.grad_cross_deta == 0.0 and led_off.cross_sq_dt == 0.0
    assert led_on.cross_sq_dt == 0.0  # grad h = 0 for constant h


def test_velocity_noise_ledger_pairing(grid32):
    """u_dw recorded by the step matches <u_pre, dW> recomputed from the stream."""
    g = grid32
    state = coupled_initial_state(g)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    gl = GLParams(epsilon=0.4)
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=31, h=None)
    new, ledger = step(state, cfg, gl, noise)
    inc = sample_increment(noise, cfg.dt, 0)
    # reconstruct the pre-noise velocity: subtract dW, undo the final half diffusion
    u_spec_final = new.u_spec
    u_pre = u_spec_final / np.exp(-g.k2 * cfg.dt / 2.0) - inc.dW
    expect = g.l2_inner_spec(u_pre[0], inc.dW[0]) \
        + g.l2_inner_spec(u_pre[1], inc.dW[1])
    assert ledger.u_dw == pytest.approx(expect, rel=1e-8, abs=1e-12)


def test_velocity_noise_ledger_equals_two_inner_products_bitwise(grid32, monkeypatch):
    """On a noisy step, the stacked ``u_dw`` is, bit for bit, the sum of one
    ``l2_inner_spec`` per component of the pre-noise velocity (the exchange
    stage's output, recorded here) with the drawn dW."""
    import nsgl.stepper

    g = grid32
    state = coupled_initial_state(g)
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=31, h=scalar_h(g, "single_mode"))
    exchanged = []

    def recorded(*args):
        out = midpoint_exchange(*args)
        exchanged.append(out[:2].copy())
        return out

    monkeypatch.setattr(nsgl.stepper, "midpoint_exchange", recorded)
    _, ledger = step(state, cfg, GLParams(epsilon=0.4), noise)
    (u_pre,) = exchanged
    dW = sample_increment(noise, cfg.dt, 0).dW
    expect = g.l2_inner_spec(u_pre[0], dW[0]) + g.l2_inner_spec(u_pre[1], dW[1])
    assert ledger.n_substeps == 1 and expect != 0.0
    assert ledger.u_dw == expect


def test_stepper_config_rejects_negative_max_halvings():
    with pytest.raises(ValueError, match="max_halvings"):
        StepperConfig(dt=1e-3, t_end=1.0, max_halvings=-1)
    assert StepperConfig(dt=1e-3, t_end=1.0, max_halvings=0).max_halvings == 0


def count_fft(monkeypatch, per_call):
    """Wrap the grid's transform kernels to add ``per_call(a)`` for the
    input ``a`` of every chunk: at ``rfft_n_even``, a forward chunk's first
    pass, and ``ifft``, an inverse chunk's; returns the live
    {"forward": ..., "inverse": ...} counts."""
    counts = {"forward": 0, "inverse": 0}
    kernels = nsgl.grid._pfu

    def counted(fn, kind):
        def wrapper(a, *args, **kwargs):
            counts[kind] += per_call(a)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(nsgl.grid, "_pfu", types.SimpleNamespace(
        rfft_n_even=counted(kernels.rfft_n_even, "forward"), fft=kernels.fft,
        ifft=counted(kernels.ifft, "inverse"), irfft=kernels.irfft))
    return counts


def count_slices(monkeypatch):
    """The 2D slices the grid transforms (see ``count_fft``)."""
    return count_fft(monkeypatch, lambda a: a.size // (a.shape[-2] * a.shape[-1]))


def count_calls(monkeypatch):
    """The grid's transform chunks, one kernel call per axis each (see
    ``count_fft``)."""
    return count_fft(monkeypatch, lambda a: 1)


def cached_state(g):
    """The coupled initial state's grid values as initial data: a state
    ``from_arrays``, which holds their spectra too."""
    src = coupled_initial_state(g)
    return SimState.from_arrays(g, src.u_phys, src.n_phys)


def scalar_h(g, profile):
    x1, x2 = g.meshgrid()
    scalar = {"constant": np.full(x1.shape, 0.8), "single_mode": np.cos(x1),
              "two_mode": np.cos(x1) + np.cos(x2)}[profile]
    return scalar * np.ones((3, 1, 1))


def test_strang_step_transform_counts(grid32, monkeypatch):
    """One unsplit Strang step with both noises on and h = cos x1 runs 19
    forward and 30 inverse 2D transform slices, from a state whose spectra
    are already cached, as the per-step energy report leaves them.  Each of
    the two drift evaluations takes 5 forward and 8 inverse slices of them,
    and the director-noise ledger 3 + 3: n forward and d1 n back, since
    d2 h is exactly 0.  The drift projects nothing: the step's one Leray
    projection is the one at the end of the exchange stage."""
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "single_mode"))
    assert noise.h_dirs == (0,)
    state = cached_state(g)
    slices = count_slices(monkeypatch)
    projections = []

    def counted_projection(*args, **kwargs):
        projections.append(args[1].shape)
        return leray_project_spec(*args, **kwargs)

    monkeypatch.setattr("nsgl.stepper.leray_project_spec", counted_projection)
    _, ledger = step(state, StepperConfig(dt=1e-3, t_end=1e-3), GLParams(epsilon=0.4), noise)
    assert ledger.n_substeps == 1
    assert slices == {"forward": 19, "inverse": 30}
    assert projections == [(2, *g.spec_shape)]


@pytest.mark.parametrize("profile, dirs, counts", [
    ("constant", (), {"forward": 16, "inverse": 27}),
    ("two_mode", (0, 1), {"forward": 19, "inverse": 33}),
])
def test_ledger_transforms_follow_the_directions_h_varies_in(grid32, monkeypatch,
                                                              profile, dirs, counts):
    """A constant h takes no ledger transform (16 + 27 per step); for
    h = cos x1 + cos x2 both derivatives of n go back (19 + 33)."""
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, profile))
    assert noise.h_dirs == dirs
    state = cached_state(g)
    slices = count_slices(monkeypatch)
    step(state, StepperConfig(dt=1e-3, t_end=1e-3), GLParams(epsilon=0.4), noise)
    assert slices == counts


def test_family_member_steps_skip_the_noise_ledger_transforms(grid32, monkeypatch):
    """With h = cos x1, a family member-step takes 16 forward and 27 inverse
    step slices, the count of a constant h: the family reads no member's
    balance, so its members step without the noise ledger.  The steps of
    ``run_path`` and ``run_ensemble`` keep the ledger's 19 + 30."""
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "single_mode"))
    cfg = StepperConfig(dt=1e-3, t_end=2e-3)
    gl = GLParams(epsilon=0.4)
    slices = count_slices(monkeypatch)
    per_step = []
    plain_step = experiments.step

    def counting_step(*args, **kwargs):
        before = dict(slices)
        out = plain_step(*args, **kwargs)
        assert out[1].n_substeps == 1
        per_step.append((slices["forward"] - before["forward"],
                         slices["inverse"] - before["inverse"]))
        return out

    monkeypatch.setattr(experiments, "step", counting_step)
    experiments.run_path(cached_state(g), cfg, gl, noise)
    assert per_step == [(19, 30)] * cfg.n_steps
    per_step.clear()
    experiments.run_ensemble(cached_state(g), cfg, gl, noise, n_paths=2)
    assert per_step == [(19, 30)] * (2 * cfg.n_steps)
    per_step.clear()
    experiments.run_coupled_family(cached_state(g), cfg, (0.4, 0.2), noise, n_paths=1)
    assert per_step == [(16, 27)] * (2 * cfg.n_steps)


def test_step_without_the_noise_ledger_keeps_the_state_bits(grid32):
    """``noise_ledger=False`` moves no bit of the stepped state, here with a
    CFL-halved step, and returns NaN in the three noise sums beside the
    counted substeps."""
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "two_mode"))
    cfg = StepperConfig(dt=1e-3, t_end=1e-3)
    gl = GLParams(epsilon=0.4)
    state = cached_state(g)
    with_ledger, ledger = step(state, cfg, gl, noise, force_level=1)
    without, bare = step(state, cfg, gl, noise, force_level=1, noise_ledger=False)
    assert with_ledger.spec.tobytes() == without.spec.tobytes()
    assert with_ledger.phys.tobytes() == without.phys.tobytes()
    assert np.isfinite([ledger.u_dw, ledger.grad_cross_deta, ledger.cross_sq_dt]).all()
    assert np.isnan([bare.u_dw, bare.grad_cross_deta, bare.cross_sq_dt]).all()
    assert (bare.n_substeps, bare.level_max) == (ledger.n_substeps, ledger.level_max) == (2, 1)


def test_director_noise_ledger_skips_only_exact_zeros(grid32, monkeypatch):
    """The ledger leaves out the directions in which h does not vary.  For
    h = cos x1 it equals the two-direction formula bit for bit; for a
    constant h it runs no transform and both terms stay exactly 0.0."""
    from nsgl.grid import grad_pair
    from nsgl.stepper import cross3
    from nsgl.stepper import StepLedger, _director_noise

    g = grid32
    n_phys = cached_state(g).n_phys
    dt, d_eta = 1e-3, 0.0371
    inc = dataclasses.replace(sample_increment(quiet_noise(g), dt, 0), d_eta=d_eta)

    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "single_mode"))
    assert not np.any(noise.h_grad[1])
    grad_n = np.stack(grad_pair(g, g.to_spec(n_phys)))
    cross = np.stack([cross3(n_phys, noise.h_grad[0]), cross3(n_phys, noise.h_grad[1])])
    ref_grad_cross = 0.0 + g.integrate(np.sum(grad_n * cross, axis=(0, 1))) * d_eta
    ref_cross_sq = 0.0 + g.integrate(np.sum(cross * cross, axis=(0, 1))) * dt
    ledger = StepLedger()
    rotated = _director_noise(g, n_phys, noise, inc, dt, ledger)
    assert ledger.grad_cross_deta == ref_grad_cross != 0.0
    assert ledger.cross_sq_dt == ref_cross_sq > 0.0
    assert np.array_equal(rotated,
                          g.to_spec(rotate_phys(n_phys, noise.h_unit,
                                                np.sqrt(np.sum(noise.h**2, axis=0)), d_eta)))

    const = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "constant"))
    slices = count_slices(monkeypatch)
    ledger = StepLedger()
    _director_noise(g, n_phys, const, inc, dt, ledger)
    assert slices == {"forward": 3, "inverse": 0}  # the rotated director alone
    assert ledger.grad_cross_deta == 0.0 and ledger.cross_sq_dt == 0.0


@pytest.mark.parametrize("profile", ["constant", "single_mode", "two_mode"])
def test_director_noise_rotation_first_keeps_the_bits(grid32, profile):
    """``_director_noise`` rotates first and sends the unrotated and rotated
    directors forward in one call.  Its ledger sums and rotated spectrum
    equal, bit for bit, those of the ledger-first order: n forward alone,
    the sums, then the rotation and its own forward transform."""
    from nsgl.stepper import cross3
    from nsgl.stepper import StepLedger, _director_noise

    g = grid32
    n_phys = cached_state(g).n_phys
    dt = 1e-3
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, profile))
    inc = dataclasses.replace(sample_increment(noise, dt, 0), d_eta=-0.0213)

    ref = StepLedger(grad_cross_deta=0.25, cross_sq_dt=0.5)
    dirs = noise.h_dirs
    if dirs:
        n_spec = g.to_spec(n_phys)
        grad_n = np.stack([g.to_phys(g.deriv(n_spec, i + 1)) for i in dirs])
        cross = np.stack([cross3(n_phys, noise.h_grad[i]) for i in dirs])
        ref.grad_cross_deta += g.integrate(np.sum(grad_n * cross, axis=(0, 1))) * inc.d_eta
        ref.cross_sq_dt += g.integrate(np.sum(cross * cross, axis=(0, 1))) * dt
    mag = np.sqrt(np.sum(noise.h**2, axis=0))
    ref_spec = g.to_spec(rotate_phys(n_phys, noise.h_unit, mag, inc.d_eta))

    ledger = StepLedger(grad_cross_deta=0.25, cross_sq_dt=0.5)
    spec = _director_noise(g, n_phys, noise, inc, dt, ledger)
    assert ledger == ref
    assert spec.tobytes() == ref_spec.tobytes()


def test_strang_step_numpy_fft_calls(grid32, monkeypatch):
    """At N = 32 every stage of one unsplit Strang step packs its transforms
    into one transform chunk: with h = cos x1, 4 forward and 6 inverse chunks
    carry the 21 and 30 slices that one call per input takes 11 and 11
    calls for.  The forward chunks are the director-noise stage (n and the
    rotated n), the two drift evaluations and the second reaction."""
    g = grid32
    state = cached_state(g)
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "single_mode"))
    calls = count_calls(monkeypatch)
    _, ledger = step(state, StepperConfig(dt=1e-3, t_end=1e-3), GLParams(epsilon=0.4), noise)
    assert ledger.n_substeps == 1
    assert calls == {"forward": 4, "inverse": 6}


def test_path_step_numpy_fft_calls(grid32, monkeypatch):
    """A path-step at N = 32 (one step and the energy report of its state,
    as ``experiments._advance`` takes them for a group of one) makes 12
    transform chunks: the step's 4 + 6, and the report's 1 + 1."""
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "single_mode"))
    gl = GLParams(epsilon=0.4)
    state = cached_state(g)
    calls = count_calls(monkeypatch)
    new, _ = step(state, StepperConfig(dt=1e-3, t_end=1e-3), gl, noise)
    energy_report(new, gl)
    assert calls == {"forward": 5, "inverse": 7}


def test_ensemble_path_step_numpy_fft_calls(grid32, monkeypatch):
    """An ensemble path-step at N = 32 (one step, and the report without the
    state monitors of the lockstep group it belongs to, as ``run_ensemble``
    takes them) makes the step's 4 + 6 transform chunks and 1/G of the
    report's 0 + 1: the group's one inverse chunk carries lap n of every
    path, 3 slices each (G = 2 at N = 32).  Without a covering nothing
    reads grad n pointwise, and |grad n|^2 comes off the half spectrum."""
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "single_mode"))
    gl = GLParams(epsilon=0.4)
    state = cached_state(g)
    calls = count_calls(monkeypatch)
    new, _ = step(state, StepperConfig(dt=1e-3, t_end=1e-3), gl, noise)
    energy_report(new, gl, monitors=False)
    assert calls == {"forward": 4, "inverse": 7}
    monkeypatch.undo()
    slices = count_slices(monkeypatch)
    energy_report(new, gl, monitors=False)
    assert slices == {"forward": 0, "inverse": 3}
    monkeypatch.undo()
    group = [new] * experiments._group_size(new)
    assert len(group) == 2
    calls = count_calls(monkeypatch)
    energy_report(group, gl, monitors=False)
    assert calls == {"forward": 0, "inverse": 1}
    monkeypatch.undo()
    slices = count_slices(monkeypatch)
    energy_report(group, gl, monitors=False)
    assert slices == {"forward": 0, "inverse": 3 * len(group)}


_N128_INI = """
[grid]
n_modes = 128
[stepper]
dt = 0.001
t_end = 0.1
[gl]
epsilon = 0.1
[noise]
gamma = 3.0
seed = 301
[h_field]
profile = single_mode
magnitude = 1.0
[initial]
u0 = random_band
n0 = random_unit
seed = 301
"""


def test_n128_step_and_report_memory_peaks(tmp_path):
    """At N = 128 one step and the full energy report of its state keep
    their tracemalloc peaks at or below 4.50 MB and 2.89 MB, the peaks of
    the per-input transforms that the stacked stages replaced (4.497 and
    2.888 MB, measured the same way): stage inputs are transformed in
    place, and each stack is dropped once its last reader is done."""
    import tracemalloc

    from nsgl.io_cli import build_components, load_config

    ini = tmp_path / "n128.ini"
    ini.write_text(_N128_INI)
    b = build_components(load_config(str(ini)))
    state, _ = step(b.state0, b.stepper, b.gl, b.noise)  # fills every cache
    energy_report(state, b.gl, b.covering)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        state, _ = step(state, b.stepper, b.gl, b.noise)
        step_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        energy_report(state, b.gl, b.covering)
        report_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert step_peak <= 4.50e6 and report_peak <= 2.89e6, (step_peak, report_peak)


def test_energy_report_of_a_stepped_state_transform_counts(grid32, monkeypatch):
    """Every state carries its spectra beside their grid values, so the
    full energy report of a stepped state (a covering, as ``run`` and
    ``converge`` take it) makes 2 transform calls: 1 forward slice
    (w = |n|^2) and 9 inverse (grad n, lap n); the integrals of |grad n|^2
    and |grad w|^2 come off the half spectra.  With the 21 + 30 of a step
    with h = cos x1, a path-step runs 22 + 39.  Without a covering nothing
    reads grad n pointwise, and the report takes 1 + 3."""
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=4, seed=3, h=scalar_h(g, "single_mode"))
    state, _ = step(coupled_initial_state(g), StepperConfig(dt=1e-3, t_end=1e-3),
                    GLParams(epsilon=0.4), noise)
    covering = CoveringSet(g, np.pi / 8)
    slices = count_slices(monkeypatch)
    energy_report(state, GLParams(epsilon=0.4), covering)
    assert slices == {"forward": 1, "inverse": 9}
    monkeypatch.undo()
    calls = count_calls(monkeypatch)
    energy_report(state, GLParams(epsilon=0.4), covering)
    assert calls == {"forward": 1, "inverse": 1}
    monkeypatch.undo()
    slices = count_slices(monkeypatch)
    energy_report(state, GLParams(epsilon=0.4))
    assert slices == {"forward": 1, "inverse": 3}


def test_noisy_step_keeps_velocity_band_limited_and_solenoidal(grid32):
    """The exchange drift takes u's transport in conservative form, which
    needs every u it sees inside the 2/3 band and divergence-free: a step
    with both noises on, unsplit and split once, hands back such a u to
    roundoff."""
    g = grid32
    noise = NoiseModel(grid=g, mode_cutoff=g.n_modes // 3, seed=5,
                       h=scalar_h(g, "single_mode"))
    state = coupled_initial_state(g)
    cfg = StepperConfig(dt=1e-3, t_end=2e-3)
    gl = GLParams(epsilon=0.4)
    for level in (None, 1):
        out, _ = step(state, cfg, gl, noise, force_level=level)
        spec = out.u_spec
        scale = np.max(np.abs(spec))
        assert np.max(np.abs(spec[:, ~g.dealias_mask])) < 1e-14 * scale
        assert g.divergence_defect(spec) < 1e-13
        state = out
