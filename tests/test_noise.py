"""Basis enumeration, spectral weights, and increment stream properties."""

import numpy as np
import pytest

from nsgl.grid import SpectralGrid
from nsgl.io_cli import _conj_symmetry_defect
from nsgl.noise import NoiseModel, sample_increment


def brute_force_half_plane(cutoff):
    pts = []
    for k1 in range(0, cutoff + 1):
        for k2 in range(-cutoff, cutoff + 1):
            if (k1 > 0 or (k1 == 0 and k2 > 0)) and 0 < k1 * k1 + k2 * k2 <= cutoff**2:
                pts.append((k1, k2))
    return sorted(pts)


def basis_field(model, j):
    """Grid values (2, N, N) of the basis element e_j of W = sum q_j w_j e_j:
    per k point of ``model.k_points``, cos(k.x) for even j and sin(k.x) for
    odd j, times the unit vector perpendicular to k (so e_j is solenoidal),
    over cos's L2 norm on the torus, pi sqrt(2)."""
    k1, k2 = model.k_points[j // 2]
    x1, x2 = model.grid.meshgrid()
    phase = k1 * x1 + k2 * x2
    wave = np.cos(phase) if j % 2 == 0 else np.sin(phase)
    norm = np.sqrt(float(k1 * k1 + k2 * k2))
    perp = np.array([-k2 / norm, k1 / norm])
    return wave * perp[:, None, None] / (np.pi * np.sqrt(2.0))


def v_mass(model):
    """V-weighted mass of Q: sum over the basis (a cos and a sin per k) of q_j^2 |k_j|^2."""
    ksq = np.sum(model.k_points.astype(np.float64) ** 2, axis=1)
    return float(2.0 * np.sum(model.q_weights**2 * ksq))


def test_half_plane_enumeration(grid32):
    model = NoiseModel(grid=grid32, mode_cutoff=2)
    got = [tuple(p) for p in model.k_points]
    assert got == brute_force_half_plane(2)
    assert len(got) == 6
    assert 2 * len(model.k_points) == 12  # a cos and a sin per k point
    # exactly one of +-k is retained, so the doubled set covers the annulus
    signed = set(got) | {(-a, -b) for a, b in got}
    full = {(a, b) for a in range(-2, 3) for b in range(-2, 3)
            if 0 < a * a + b * b <= 4}
    assert signed == full


def test_parameter_validation(grid32):
    with pytest.raises(ValueError):
        NoiseModel(grid=grid32, gamma=2.0)
    with pytest.raises(ValueError):
        NoiseModel(grid=grid32, mode_cutoff=11)  # > 32/3
    default = NoiseModel(grid=grid32)
    assert default.mode_cutoff == 8  # auto N // 4


def test_spectral_weights_and_trace(grid32):
    model = NoiseModel(grid=grid32, mode_cutoff=2, gamma=3.0)
    ksq = np.sum(model.k_points**2, axis=1)
    assert np.allclose(model.q_weights, (1.0 + ksq) ** -1.5, rtol=1e-14)
    expect_trace = 2.0 * float(np.sum((1.0 + ksq) ** -3.0))
    assert np.isclose(model.trace_q, expect_trace, rtol=1e-14)
    assert np.isclose(v_mass(model), 2.0 * float(np.sum(ksq * (1.0 + ksq) ** -3.0)),
                      rtol=1e-14)


def test_v_mass_bounded_as_cutoff_grows(grid64):
    """gamma > 2 keeps sum q_j^2 |k|^2 bounded in the cutoff."""
    masses = [v_mass(NoiseModel(grid=grid64, mode_cutoff=c, gamma=2.5))
              for c in (4, 8, 16, 21)]
    assert all(np.isfinite(m) for m in masses)
    increments = np.diff(masses)
    assert increments[-1] < increments[0]  # tail contributions decay


def test_basis_fields_orthonormal_solenoidal(grid32):
    model = NoiseModel(grid=grid32, mode_cutoff=2)
    fields = [basis_field(model, j) for j in range(2 * len(model.k_points))]
    g = grid32
    gram = np.array([[g.integrate(np.sum(a * b, axis=0)) for b in fields]
                     for a in fields])
    assert np.allclose(gram, np.eye(len(fields)), atol=1e-12)
    for f in fields:
        spec = g.to_spec(f)
        assert g.divergence_defect(spec) < 1e-12
        assert np.max(np.abs(spec[:, 0, 0])) < 1e-14


def test_increment_determinism_and_stream_separation(grid32):
    model = NoiseModel(grid=grid32, mode_cutoff=4, seed=5, path_id=3)
    a = sample_increment(model, 1e-3, step_index=7)
    b = sample_increment(model, 1e-3, step_index=7)
    assert np.array_equal(a.dW, b.dW)
    assert a.d_eta == b.d_eta
    c = sample_increment(model, 1e-3, step_index=8)
    assert not np.array_equal(a.dW, c.dW)
    import dataclasses
    other_path = dataclasses.replace(model, path_id=4)
    d = sample_increment(other_path, 1e-3, step_index=7)
    assert not np.array_equal(a.dW, d.dW)
    e = sample_increment(model, 5e-4, step_index=7, level=1, slot=0)
    f = sample_increment(model, 5e-4, step_index=7, level=1, slot=1)
    assert not np.array_equal(e.dW, f.dW)
    assert not np.array_equal(e.dW, a.dW)


def test_increment_structure(grid32):
    model = NoiseModel(grid=grid32, mode_cutoff=3, seed=2)
    inc = sample_increment(model, 2e-3, step_index=0)
    dw = inc.dW
    g = grid32
    assert dw.shape == (2, *g.spec_shape) and not dw.flags.writeable
    assert _conj_symmetry_defect(dw) < 1e-14
    assert g.divergence_defect(dw) < 1e-12
    assert np.max(np.abs(dw[:, 0, 0])) < 1e-15
    # support is exactly the retained annulus
    k_abs = np.sqrt(g.k2)
    outside = (k_abs > 3.0) | (k_abs == 0.0)
    assert np.max(np.abs(dw[:, outside])) == 0.0
    spec_rt = g.to_spec(g.to_phys(dw))
    assert np.max(np.abs(spec_rt - dw)) < 1e-15


def test_increment_moments(grid32):
    """E |dW|^2 = TrQ dt and E d_eta^2 = dt, by Monte Carlo at fixed seed."""
    model = NoiseModel(grid=grid32, mode_cutoff=2, gamma=3.0, seed=0)
    dt = 1e-2
    n_draws = 2000
    w_mass = 0.0
    eta_sq = 0.0
    eta_sum = 0.0
    for j in range(n_draws):
        inc = sample_increment(model, dt, step_index=j)
        w_mass += grid32.l2_norm_spec(inc.dW) ** 2
        eta_sq += inc.d_eta**2
        eta_sum += inc.d_eta
    w_mass /= n_draws
    eta_sq /= n_draws
    assert abs(w_mass - model.trace_q * dt) < 0.05 * model.trace_q * dt
    assert abs(eta_sq - dt) < 0.15 * dt
    assert abs(eta_sum / n_draws) < 3.0 * np.sqrt(dt / n_draws)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("cutoff", [2, 5])
def test_increment_second_moment_is_exactly_trace_q_dt(monkeypatch, n, cutoff):
    """dW is linear in the normals xi, so E |dW|^2_{L2} = dt sum_j |dW(e_j)|^2
    over the unit vectors e_j of the velocity's normals: fed one at a time
    through ``sample_increment``, normal j gives sqrt(dt) q_j times the
    spectrum of the basis element e_j (a cos/sin swap or a sign flip on the
    mirrored points would keep every moment), and the sum is TrQ dt to
    roundoff.  This is the variance that the ledger's <u, dW> pairs with."""
    import nsgl.noise

    grid = SpectralGrid(n)
    model = NoiseModel(grid=grid, mode_cutoff=cutoff, gamma=3.0, seed=0)
    dt = 1e-2
    n_normals = 2 * len(model.k_points)
    unit = {"j": 0}

    class UnitNormals:
        def standard_normal(self, size):
            xi = np.zeros(size)
            xi[unit["j"]] = 1.0
            return xi

    monkeypatch.setattr(nsgl.noise, "_stream", lambda *args: UnitNormals())
    mass = 0.0
    for j in range(n_normals):
        unit["j"] = j
        dw = sample_increment(model, dt, 0).dW
        want = np.sqrt(dt) * model.q_weights[j // 2] * grid.to_spec(basis_field(model, j))
        assert np.max(np.abs(dw - want)) <= 1e-14 * np.max(np.abs(want)), j
        mass += grid.l2_norm_spec(dw) ** 2
    assert mass == pytest.approx(model.trace_q * dt, rel=1e-12, abs=0.0)


def fresh_stream(model, step_index, level, slot):
    """The reference stream of a draw: a new Philox keyed (seed, path_id) at
    counter (0, slot, level, step_index)."""
    key = np.array([model.seed, model.path_id], dtype=np.uint64)
    counter = np.array([0, slot, level, step_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def test_stream_equals_a_fresh_philox_per_draw(grid32):
    """``_stream`` resets one shared generator per draw; what it yields is
    what a fresh Philox at the same key and counter yields, bit for bit,
    however draws of two models and of several counters interleave, and
    sample_increment's draws follow it."""
    from nsgl.noise import _stream

    models = [NoiseModel(grid=grid32, mode_cutoff=4, seed=5, path_id=3),
              NoiseModel(grid=grid32, mode_cutoff=4, seed=2**64 - 1, path_id=2**64 - 2)]
    m = len(models[0].k_points)
    counters = [(0, 0, 0), (7, 0, 0), (7, 1, 1), (7, 3, 5), (2**63, 8, 255), (7, 0, 0)]
    for step_index, level, slot in counters:
        for model in models:
            got = _stream(model, step_index, level, slot).standard_normal(2 * m + 1)
            want = fresh_stream(model, step_index, level, slot).standard_normal(2 * m + 1)
            assert got.tobytes() == want.tobytes(), (model.seed, step_index, level, slot)
            # a partly used stream does not leak into the next draw
            _stream(model, step_index + 1, level, slot).standard_normal(3)
    for model in models:
        inc = sample_increment(model, 1e-3, 7, level=1, slot=1)
        xi = fresh_stream(model, 7, 1, 1).standard_normal(2 * m + 1) * np.sqrt(1e-3)
        assert inc.d_eta == float(xi[-1])


def reference_increment_spec(model, dt, step_index):
    """The velocity increment's half spectrum with the scatter tables built
    inside the call and a fresh generator, as before both were kept."""
    from nsgl.noise import _NORM

    m = len(model.k_points)
    xi = fresh_stream(model, step_index, 0, 0).standard_normal(2 * m + 1) * np.sqrt(dt)
    n = model.grid.n_modes
    spec = np.zeros((2, *model.grid.spec_shape), dtype=np.complex128)
    k1, k2 = model.k_points[:, 0], model.k_points[:, 1]
    norm = np.sqrt((k1 * k1 + k2 * k2).astype(np.float64))
    perp = np.stack([-k2 / norm, k1 / norm])
    coeff = 0.5 * _NORM * model.q_weights * (xi[0:2 * m:2] - 1j * xi[1:2 * m:2])
    own, mirror = k2 >= 0, k2 <= 0
    for c in range(2):
        spec[c, k1[own] % n, k2[own]] = (coeff * perp[c])[own]
        spec[c, (-k1[mirror]) % n, -k2[mirror]] = (np.conj(coeff) * perp[c])[mirror]
    return spec


@pytest.mark.parametrize("cutoff", [1, 4, 10])
def test_precomputed_scatter_tables_keep_draws_bitwise(grid32, cutoff):
    model = NoiseModel(grid=grid32, mode_cutoff=cutoff, seed=5, path_id=9)
    for step_index in (0, 3):
        got = sample_increment(model, 1e-3, step_index).dW
        assert got.tobytes() == reference_increment_spec(model, 1e-3, step_index).tobytes()


def test_for_path_shares_the_tables_and_checks_the_path_id(grid32):
    """``for_path`` is ``dataclasses.replace(model, path_id=...)`` without
    rebuilding a table: the same fields, the very same h tables, and the
    same draws; a path_id outside [0, 2**64) is refused as by the constructor."""
    import dataclasses

    h = np.cos(grid32.meshgrid()[0]) * np.ones((3, 1, 1))
    model = NoiseModel(grid=grid32, mode_cutoff=4, seed=5, path_id=3, h=h)
    other = model.for_path(11)
    rebuilt = dataclasses.replace(model, path_id=11)
    assert other == rebuilt and other.path_id == 11 and model.path_id == 3
    for name in ("h_grad", "h_unit", "h_mag_values", "h_mag_index",
                 "scatter_at", "q_scale"):
        assert getattr(other, name) is getattr(model, name)
        assert getattr(other, name).tobytes() == getattr(rebuilt, name).tobytes()
    assert other.h_dirs == rebuilt.h_dirs == (0,)
    a, b = (sample_increment(m, 1e-3, step_index=2) for m in (other, rebuilt))
    assert a.dW.tobytes() == b.dW.tobytes() and a.d_eta == b.d_eta
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="path_id"):
            model.for_path(bad)


def test_h_is_a_read_only_copy_of_its_shape(grid16):
    """``NoiseModel(h=...)`` holds a read-only float64 copy of (3, N, N) grid
    values, so writing into the caller's array later changes nothing, and
    refuses any other shape."""
    h = np.ones((3, 16, 16))
    model = NoiseModel(grid=grid16, h=h)
    assert model.h is not h and not model.h.flags.writeable
    assert model.h.dtype == np.float64 and np.array_equal(model.h, h)
    h[:] = 2.0
    assert np.all(model.h == 1.0)
    with pytest.raises(ValueError):
        model.h[0, 0, 0] = 0.0
    for shape in ((2, 16, 16), (3, 32, 32), (3, 16)):
        with pytest.raises(ValueError, match="noise.h must have shape"):
            NoiseModel(grid=grid16, h=np.ones(shape))


def test_fixed_cutoff_draws_agree_across_grid_sizes():
    """At a fixed ``mode_cutoff`` a model lists the same k points in the same
    order at every N, so ``sample_increment`` at N = 16, 32 and 64 draws
    bitwise-equal dW coefficients on the common modes, zero elsewhere, and
    an equal d_eta: a refinement in N keeps the Brownian path."""
    draws = {n: sample_increment(NoiseModel(SpectralGrid(n), mode_cutoff=5, seed=41,
                                            path_id=3), 1e-3, 7, level=1, slot=1)
             for n in (16, 32, 64)}
    k1 = np.arange(-7, 8)  # the k1 of the coarsest grid, its Nyquist row left out
    ref = draws[16]
    assert np.count_nonzero(ref.dW) > 0
    for n, inc in draws.items():
        common = inc.dW[:, k1 % n, :8]
        assert common.tobytes() == ref.dW[:, k1 % 16, :8].tobytes(), n
        assert np.count_nonzero(inc.dW) == np.count_nonzero(common), n
        assert np.float64(inc.d_eta).tobytes() == np.float64(ref.d_eta).tobytes(), n
