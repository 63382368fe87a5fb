"""Projection, the exchange drift kernel, penalty, and pointwise algebra oracles.

The transport and stress oracles run on ``coupling_drift_spec``, the kernel
the step runs; the per-term advective reference and the penalty f(n) are
built here from grid primitives."""

import numpy as np
import pytest

from nsgl.checks import bilaplacian_identity_residual
from nsgl.diagnostics import energy_report
from nsgl.grid import (
    SpectralGrid,
    grad_pair,
    leray_project_spec,
    random_band_limited,
    sobolev_norm,
)
from nsgl.stepper import GLParams, SimState, coupling_drift_spec, cross3

PI = np.pi


def drift(g, u_spec, n_spec):
    """The exchange kernel's r = (r_u, r_n) on u's and n's half spectra;
    either may be None for a field at rest."""
    u_spec = np.zeros((2, *g.spec_shape), complex) if u_spec is None else u_spec
    n_spec = np.zeros((3, *g.spec_shape), complex) if n_spec is None else n_spec
    r = coupling_drift_spec(g, np.concatenate([u_spec, n_spec]))
    return r[:2], r[2:]


def stress(g, n_phys):
    """Projected divergence of grad(n) (.) grad(n), a velocity half spectrum:
    the exchange kernel's r_u with u at rest."""
    return drift(g, None, g.to_spec(n_phys))[0]


def mean_defect(spec):
    """Magnitude of the k = 0 coefficient (spatial mean) of a stack."""
    return float(np.max(np.abs(spec[:, 0, 0])))


def constant(axis, value=1.0):
    """Grid values at N = 32 of the constant field value * axis."""
    return np.full((32, 32), value) * np.asarray(axis)[:, None, None]


def test_gl_params_validation():
    with pytest.raises(ValueError):
        GLParams(epsilon=0.0)
    with pytest.raises(ValueError):
        GLParams(epsilon=-1.0)
    with pytest.raises(ValueError, match="nonzero square"):
        GLParams(epsilon=1e-300)  # epsilon**2 underflows to 0
    assert GLParams(epsilon=0.25).epsilon == 0.25
    assert GLParams(epsilon=1e-160).epsilon == 1e-160  # a subnormal square


def test_leray_properties(grid32, rng, make_velocity):
    g = grid32
    raw = g.to_spec(np.stack([rng.standard_normal((32, 32))] * 2))
    p1 = leray_project_spec(g, raw)
    p2 = leray_project_spec(g, p1)
    assert g.divergence_defect(p1) < 1e-12
    assert np.max(np.abs(p2 - p1)) < 1e-14
    assert mean_defect(p1) < 1e-14
    # gradients are annihilated
    x1, x2 = g.meshgrid()
    phi_spec = g.to_spec(np.sin(2.0 * x1) * np.cos(x2))
    grad = np.stack([g.deriv(phi_spec, 1), g.deriv(phi_spec, 2)])
    killed = leray_project_spec(g, grad)
    assert g.l2_norm_spec(killed) < 1e-12 * g.l2_norm_spec(grad)


def test_convect_velocity_analytic(grid32):
    """The kernel's projected div(u (x) u) for u = (sin x2, 0) is (0, 0):
    u.grad u = 0 already, since u1 depends only on x2 and u2 = 0."""
    g = grid32
    _, x2 = g.meshgrid()
    u = g.to_spec(np.stack([np.sin(x2), np.zeros_like(x2)]))
    cu, _ = drift(g, u, None)
    assert g.l2_norm_spec(cu) < 1e-13


def test_convect_director_analytic(grid32):
    """The kernel's n transport for u = (sin x2, 0), n = (sin x1, 0, 0)."""
    g = grid32
    x1, x2 = g.meshgrid()
    u = g.to_spec(np.stack([np.sin(x2), np.zeros_like(x2)]))
    n = g.to_spec(np.stack([np.sin(x1), np.zeros_like(x1), np.zeros_like(x1)]))
    cn = g.to_phys(drift(g, u, n)[1])
    expect = np.stack([np.sin(x2) * np.cos(x1), np.zeros_like(x1), np.zeros_like(x1)])
    assert np.allclose(cn, expect, atol=1e-12)


def test_convect_skew_symmetry(grid32, rng, make_velocity, make_director):
    """<r_u, u> = 0 with n at rest and <r_n, n> = 0 on solenoidal u."""
    g = grid32
    u = make_velocity(g, rng, k_max=6)
    n = g.to_spec(make_director(g, rng, k_max=6))
    cu, _ = drift(g, u, None)
    _, cn = drift(g, u, n)
    assert abs(g.l2_inner_spec(cu, u)) < 1e-12
    assert abs(g.l2_inner_spec(cn, n)) < 1e-12


def test_ericksen_stress_vanishes_on_circle_field(grid32, circle_director):
    """grad n (.) grad n = diag(1, 0) for the circle field; its divergence is 0."""
    s = stress(grid32, circle_director(grid32))
    assert grid32.l2_norm_spec(s) < 1e-12


def test_ericksen_stress_energy_pairing(grid64, rng, make_velocity, make_director):
    """<P div(grad n . grad n), u> = <u . grad n, lap n> on solenoidal u."""
    g = grid64
    u = make_velocity(g, rng, k_max=6)
    n = make_director(g, rng, k_max=6)
    n_spec = g.to_spec(n)
    lhs = g.l2_inner_spec(stress(g, n), u)
    rhs = g.l2_inner_spec(drift(g, u, n_spec)[1], g.laplacian(n_spec))
    assert abs(lhs - rhs) < 1e-9 * (abs(lhs) + abs(rhs) + 1.0)


def test_ericksen_stress_is_solenoidal_mean_free(grid32, rng, make_director):
    s = stress(grid32, make_director(grid32, rng, k_max=6))
    assert grid32.divergence_defect(s) < 1e-12
    assert mean_defect(s) < 1e-14


def convect_spec(g, u_phys, f_spec):
    """(u . grad) f for any component stack f, dealiased, in spectral space:
    the advective form, one product per derivative."""
    d1, d2 = grad_pair(g, f_spec)
    return g.dealias(g.to_spec(u_phys[0] * d1 + u_phys[1] * d2))


def stress_div_spec(g, d1, d2):
    """Projected divergence of grad(n) (.) grad(n) from the physical partials
    of n, its entries t11, t12, t22 summed one by one."""
    t = g.dealias(g.to_spec(np.stack([(a * b).sum(axis=0)
                                      for a, b in ((d1, d1), (d1, d2), (d2, d2))])))
    div = np.stack([g.grad_c[0, 0] * t[0] + g.grad_c[1, 0] * t[1],
                    g.grad_c[0, 0] * t[1] + g.grad_c[1, 0] * t[2]])
    return leray_project_spec(g, div)


def advective_drift_spec(g, u_spec, n_spec):
    """The exchange drift with u's transport in advective form: -P((u.grad) u
    + div stress), -(u.grad) n, each convection and the stress taken apart."""
    u_phys = g.to_phys(u_spec)
    du = convect_spec(g, u_phys, u_spec) + stress_div_spec(g, *grad_pair(g, n_spec))
    return -leray_project_spec(g, du), -convect_spec(g, u_phys, n_spec)


@pytest.mark.parametrize("n", [32, 64])
def test_conservative_drift_matches_advective_on_band_limited_solenoidal_u(n, make_director):
    """On a dealiased solenoidal u, -P div(u (x) u + grad n (.) grad n) equals
    the advective -P((u.grad) u + div stress) to roundoff; a u with content
    above N/3 breaks that precondition and must not match."""
    g = SpectralGrid(n)
    rng = np.random.default_rng(n)
    n_spec = g.to_spec(make_director(g, rng, k_max=n // 2, unit=True))
    for k_max, band_limited in ((n // 4, True), (n // 3, True), (n // 2, False)):
        raw = g.to_spec(random_band_limited(g, 2, k_max, rng))
        u_spec = leray_project_spec(g, g.dealias(raw) if band_limited else raw)
        r = coupling_drift_spec(g, np.concatenate([u_spec, n_spec]))
        du, dn = -r[:2], -r[2:]
        du_ref, dn_ref = advective_drift_spec(g, u_spec, n_spec)
        rel = np.max(np.abs(du - du_ref)) / np.max(np.abs(du_ref))
        if band_limited:
            assert rel <= 1e-12
        else:
            assert rel > 1e-3
        assert np.array_equal(dn, dn_ref)  # the n transport is unchanged


@pytest.mark.parametrize("n", [32, 64, 128])
def test_stream_function_drift_equals_the_projected_tensor_divergence(n, make_director):
    """The kernel's r_u, the perpendicular gradient of one stream function,
    equals the Leray projection of the divergence of the dealiased three
    entries of sigma = u (x) u + grad n (.) grad n to 1e-14 relative; it is
    solenoidal and mean-free."""
    g = SpectralGrid(n)
    rng = np.random.default_rng(n + 1)
    n_spec = g.to_spec(make_director(g, rng, k_max=n // 2, unit=True))
    u_spec = leray_project_spec(g, g.dealias(g.to_spec(random_band_limited(g, 2, n // 3, rng))))
    r_u, _ = drift(g, u_spec, n_spec)
    u = g.to_phys(u_spec)
    d1, d2 = grad_pair(g, n_spec)
    # u's components join n's, so each entry's sum over components is sigma's
    ref = stress_div_spec(g, np.concatenate([d1, u[:1]]), np.concatenate([d2, u[1:]]))
    assert np.max(np.abs(r_u - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert g.divergence_defect(r_u) <= 1e-14
    assert mean_defect(r_u) == 0.0


def test_cross3_matches_numpy(rng):
    a = rng.standard_normal((3, 7, 5))
    b = rng.standard_normal((3, 7, 5))
    assert np.allclose(cross3(a, b), np.cross(a, b, axis=0), atol=1e-15)


def test_gl_penalty_values(grid32):
    """For u at rest and a constant n, D = int |lap n + f(n)|^2 = |f(n)|^2 4 pi^2."""
    g = grid32

    def enstrophy(n, epsilon):
        state = SimState.from_arrays(g, np.zeros((2, 32, 32)), n)
        return energy_report(state, GLParams(epsilon=epsilon)).enstrophy_D

    assert enstrophy(constant((0.0, 0.0, 1.0)), 0.3) == 0.0
    # f = (1 - 1/4) * (1/2) / (1/4) = 3/2 along e1
    assert np.isclose(enstrophy(constant((1.0, 0.0, 0.0), 0.5), 0.5),
                      1.5**2 * 4.0 * PI**2, rtol=1e-13)


def test_gl_potential_mass_frozen_values(grid32):
    g = grid32

    def potential_mass(n, epsilon):
        state = SimState.from_arrays(g, np.zeros((2, 32, 32)), n)
        return energy_report(state, GLParams(epsilon=epsilon)).gl_mass

    zero = np.zeros((3, 32, 32))
    assert np.isclose(potential_mass(zero, 1.0), PI**2, rtol=1e-14)
    half = constant((1.0, 0.0, 0.0), 0.5)
    expect = (9.0 / 16.0) * 4.0 * PI**2
    assert np.isclose(potential_mass(half, 0.5), expect, rtol=1e-14)


def test_director_cross_h_orientation(grid32):
    g = grid32
    out = cross3(constant((1.0, 0.0, 0.0)), constant((0.0, 0.0, 1.0)))
    assert np.allclose(out[1], -1.0, atol=1e-15)
    assert np.allclose(out[0], 0.0, atol=1e-15)
    assert np.allclose(out[2], 0.0, atol=1e-15)


def penalty_phys(n_phys, epsilon):
    """The Ginzburg-Landau penalty f(n) = (1/eps^2)(1 - |n|^2) n."""
    return (1.0 - (n_phys * n_phys).sum(axis=0)) * n_phys / epsilon**2


def test_penalty_orthogonal_to_rotation_direction(grid32, rng, make_director):
    g = grid32
    n = make_director(g, rng, k_max=3)
    h = make_director(g, rng, k_max=3)
    f = g.dealias(g.to_spec(penalty_phys(n, 0.7)))
    pair = g.l2_inner_spec(f, g.to_spec(cross3(n, h)))
    assert abs(pair) < 1e-12


def test_bilaplacian_identity_band_limited(grid64, rng, make_director):
    n = make_director(grid64, rng, k_max=15)  # < N/4: products stay resolved
    res = bilaplacian_identity_residual(grid64, n)
    scale = 1.0 + sobolev_norm(grid64, grid64.to_spec(n), 4.0, homogeneous=False) ** 2
    assert res / scale < 1e-8


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_leray_projection_equals_the_per_component_reference_bitwise(n):
    """The stacked projection against ``grid.k_c`` gives, byte for byte,
    the per-component form with the broadcast (N, 1) and (1, N/2+1) tables:
    u_i - (k_i * (kx u0 + ky u1)) / k2_safe, mean zeroed; written into a new
    array and in place over its input."""
    g = SpectralGrid(n)
    rng = np.random.default_rng(n)
    u = rng.standard_normal((2, *g.spec_shape)) + 1j * rng.standard_normal((2, *g.spec_shape))
    kx, ky = g.kx.astype(complex), g.ky.astype(complex)
    kdotu = kx * u[0] + ky * u[1]
    ref = np.stack([u[0] - (kx * kdotu) / g.k2_safe, u[1] - (ky * kdotu) / g.k2_safe])
    ref[:, 0, 0] = 0.0

    got = leray_project_spec(g, u)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()
    in_place = u.copy()
    assert leray_project_spec(g, in_place, out=in_place) is in_place
    assert in_place.tobytes() == ref.tobytes()
