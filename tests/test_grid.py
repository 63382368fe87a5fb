"""Transforms, masks, quadrature, and Sobolev norms on the periodic grid."""

import types

import numpy as np
import pytest

import nsgl.grid
from nsgl.grid import (
    CHUNK_BYTES,
    SpectralGrid,
    grad_pair,
    random_band_limited,
    sobolev_norm,
)
from nsgl.io_cli import _conj_symmetry_defect


def test_n_modes_must_be_even_and_at_least_16():
    with pytest.raises(ValueError):
        SpectralGrid(15)
    with pytest.raises(ValueError):
        SpectralGrid(8)
    assert SpectralGrid(16).n_modes == 16


def test_points_and_wavenumbers(grid32):
    g = grid32
    assert g.x1[0] == 0.0
    assert np.isclose(g.x1[1], 2.0 * np.pi / 32)
    assert g.kx.shape == (32, 1) and g.ky.shape == (1, 17)  # half spectrum
    assert g.kx[1, 0] == 1.0 and g.kx[-1, 0] == -1.0
    assert g.kx[16, 0] == -16.0  # unpaired Nyquist row
    assert g.ky[0, 16] == 16.0  # unpaired Nyquist column
    assert not g.diff_mask[16, 0] and not g.diff_mask[0, 16]
    assert g.diff_mask[15, 0] and g.diff_mask[0, 15]
    cut = 32 / 3.0
    assert g.dealias_mask[10, 0] and not g.dealias_mask[11, 0]
    assert np.all((np.abs(g.kx) <= cut) | ~g.dealias_mask.any(axis=1)[:, None])


def test_transform_round_trip(grid32, rng):
    phys = rng.standard_normal((3, 32, 32))
    back = grid32.to_phys(grid32.to_spec(phys))
    assert np.allclose(back, phys, atol=1e-13)


@pytest.mark.parametrize("n", [16, 32, 48, 64, 128])
def test_transform_scaling_inside_the_fft_call(n):
    """``to_spec``/``to_phys`` scale by N^2 inside the kernel calls: bitwise the raw
    transform divided or multiplied by N^2 when N is a power of two, and
    equal to roundoff otherwise."""
    g = SpectralGrid(n)
    phys = np.random.default_rng(n).standard_normal((3, n, n))
    spec = g.to_spec(phys)
    pairs = [(spec, np.fft.rfft2(phys, axes=(-2, -1)) / g.size),
             (g.to_phys(spec), np.fft.irfft2(spec, s=(n, n), axes=(-2, -1)) * g.size)]
    for got, old in pairs:
        if n & (n - 1) == 0:
            assert np.array_equal(got, old)
        else:
            assert np.allclose(got, old, rtol=1e-14, atol=1e-14 * np.max(np.abs(old)))


def test_single_mode_coefficients(grid32):
    """sin(x1) has coefficients -i/2 at k=(1,0) and +i/2 at k=(-1,0)."""
    g = grid32
    x1, _ = g.meshgrid()
    spec = g.to_spec(np.sin(x1))
    assert np.isclose(spec[1, 0], -0.5j, atol=1e-14)
    assert np.isclose(spec[-1, 0], 0.5j, atol=1e-14)
    others = spec.copy()
    others[1, 0] = others[-1, 0] = 0.0
    assert np.max(np.abs(others)) < 1e-14


def test_derivatives_on_plane_waves(grid32):
    g = grid32
    x1, x2 = g.meshgrid()
    f = np.sin(3.0 * x1) * np.cos(2.0 * x2)
    spec = g.to_spec(f)
    d1 = g.to_phys(g.deriv(spec, 1))
    d2 = g.to_phys(g.deriv(spec, 2))
    lap = g.to_phys(g.laplacian(spec))
    assert np.allclose(d1, 3.0 * np.cos(3.0 * x1) * np.cos(2.0 * x2), atol=1e-12)
    assert np.allclose(d2, -2.0 * np.sin(3.0 * x1) * np.sin(2.0 * x2), atol=1e-12)
    assert np.allclose(lap, -13.0 * f, atol=1e-11)


def test_deriv_kills_nyquist_line(grid32):
    g = grid32
    spec = np.zeros((32, 17), dtype=complex)
    spec[16, 0] = 1.0  # k1 = -16: no conjugate partner on the grid
    assert np.all(g.deriv(spec, 1) == 0.0)
    assert np.all(g.laplacian(spec) == 0.0)
    spec[16, 0] = 0.0
    spec[3, 16] = 1.0  # k2 = 16: the same for the last column
    assert np.all(g.deriv(spec, 2) == 0.0)
    assert np.all(g.laplacian(spec) == 0.0)


def test_parseval_and_quadrature(grid32, rng):
    g = grid32
    phys = random_band_limited(g, 1, 8, rng)[0]
    spec = g.to_spec(phys)
    assert np.isclose(g.l2_norm_phys(phys), g.l2_norm_spec(spec), rtol=1e-12)
    assert np.isclose(g.l2_inner_spec(spec, spec), g.l2_norm_phys(phys) ** 2,
                      rtol=1e-12)
    const = np.full((32, 32), 2.5)
    assert np.isclose(g.integrate(const), 2.5 * (2.0 * np.pi) ** 2, rtol=1e-14)
    # quadrature of a pure nonzero mode is exactly zero
    x1, _ = g.meshgrid()
    assert abs(g.integrate(np.cos(4.0 * x1))) < 1e-12


def test_velocity_divergence_defect(grid32, rng, make_velocity):
    assert grid32.divergence_defect(make_velocity(grid32, rng)) < 1e-12
    x1, x2 = grid32.meshgrid()
    bad = grid32.to_spec(np.stack([np.sin(x1), np.cos(x2)]))
    assert grid32.divergence_defect(bad) > 0.1


def test_conjugate_symmetry_and_mean(grid32, rng):
    spec = grid32.to_spec(random_band_limited(grid32, 3, 5, rng))
    assert _conj_symmetry_defect(spec) < 1e-14
    assert np.max(np.abs(spec[:, 0, 0])) < 1e-14  # zero_mean construction


def test_sobolev_norm_single_mode_values(grid32):
    """H^s of cos(3 x1): L2 mass 2 pi^2, |k|^2s weight 9^s (+1 if full)."""
    g = grid32
    x1, _ = g.meshgrid()
    wave = np.cos(3.0 * x1)
    zero = np.zeros_like(x1)
    f = g.to_spec(np.stack([wave, zero, zero]))
    l2_sq = 2.0 * np.pi**2
    assert np.isclose(sobolev_norm(g, f, 0.0, homogeneous=True) ** 2, l2_sq, rtol=1e-12)
    assert np.isclose(sobolev_norm(g, f, 1.0, homogeneous=True) ** 2, 9.0 * l2_sq,
                      rtol=1e-12)
    assert np.isclose(sobolev_norm(g, f, 1.0, homogeneous=False) ** 2, 10.0 * l2_sq,
                      rtol=1e-12)
    u = g.to_spec(np.stack([wave, zero]))
    assert np.isclose(sobolev_norm(g, u, 1.0, homogeneous=True) ** 2, 9.0 * l2_sq,
                      rtol=1e-12)
    assert np.isclose(sobolev_norm(g, f, 0.5, homogeneous=True) ** 2, 3.0 * l2_sq,
                      rtol=1e-12)


def test_sobolev_norm_zero_mode_under_negative_order(grid32):
    f = grid32.to_spec(np.ones((3, 32, 32)))
    # homogeneous negative order must not blow up on the k=0 mode
    assert sobolev_norm(grid32, f, -1.0, homogeneous=True) == 0.0
    assert sobolev_norm(grid32, f, 0.0, homogeneous=False) > 0.0


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_sobolev_norm_cache_keeps_the_uncached_bits(grid32, rng, alpha):
    """The weight table cached per (grid, order, form) gives the uncached
    formula bit for bit, for the four (order, homogeneous) pairs of the
    family's distances, and it is read-only."""
    from nsgl.grid import _sobolev_weight

    g = grid32

    def uncached(f, order, homogeneous):
        with np.errstate(divide="ignore"):
            weight = g.k2**order if order != 0.0 else np.ones_like(g.k2)
        weight = np.where(np.isfinite(weight), weight, 0.0)
        if not homogeneous:
            weight = weight + 1.0
        return float(2.0 * np.pi * np.sqrt(g.spec_sum(weight * np.abs(f) ** 2)))

    u = g.to_spec(random_band_limited(g, 2, 8, rng))
    n = g.to_spec(random_band_limited(g, 3, 8, rng))
    for f, order, homogeneous in [(u, alpha - 1.0, True), (n, alpha, False),
                                  (u, alpha, True), (n, 1.0 + alpha, False)]:
        for _ in range(2):  # computing, then reading the cache
            assert sobolev_norm(g, f, order, homogeneous=homogeneous) \
                == uncached(f, order, homogeneous)
        assert not _sobolev_weight(g, order, homogeneous).flags.writeable


def test_random_band_limited_properties(grid32, rng):
    phys = random_band_limited(grid32, 2, 5, rng, amplitude=0.7)
    assert np.isclose(np.max(np.abs(phys)), 0.7, rtol=1e-12)
    spec = grid32.to_spec(phys)
    box = (np.abs(grid32.kx) <= 5) & (np.abs(grid32.ky) <= 5)
    assert np.max(np.abs(spec[:, ~box])) < 1e-15
    assert abs(spec[0, 0, 0]) < 1e-15 and abs(spec[1, 0, 0]) < 1e-15


def test_grad_pair_shape_and_value(grid32):
    g = grid32
    x1, x2 = g.meshgrid()
    spec = g.to_spec(np.stack([np.sin(x1), np.sin(x2), np.zeros_like(x1)]))
    grad = np.stack(grad_pair(g, spec), axis=1)
    assert grad.shape == (3, 2, 32, 32)
    assert np.allclose(grad[0, 0], np.cos(x1), atol=1e-12)
    assert np.allclose(grad[1, 1], np.cos(x2), atol=1e-12)
    assert np.allclose(grad[0, 1], 0.0, atol=1e-12)


# -- Hermitian half spectrum ----------------------------------------------------


def test_half_spectrum_sums_on_white_noise(grid32, rng):
    """White noise fills the self-conjugate columns k2 = 0 and k2 = N/2, whose
    modes the Hermitian weights count once: every spectral sum must still
    equal its physical quadrature."""
    g = grid32
    a = rng.standard_normal((3, 32, 32))
    b = rng.standard_normal((3, 32, 32))
    sa, sb = g.to_spec(a), g.to_spec(b)
    assert sa.shape == (3, 32, 17)
    edge = np.sum(np.abs(sa[..., [0, -1]]) ** 2)
    assert edge > 0.05 * np.sum(np.abs(sa) ** 2)
    assert np.isclose(g.l2_norm_spec(sa), g.l2_norm_phys(a), rtol=1e-12)
    assert np.isclose(g.l2_inner_spec(sa, sb), g.integrate(np.sum(a * b, axis=0)),
                      rtol=1e-12)
    assert np.isclose(g.l2_inner_spec(sa, sa), g.l2_norm_phys(a) ** 2, rtol=1e-12)
    assert np.isclose(sobolev_norm(g, sa, 0.0, homogeneous=True), g.l2_norm_phys(a),
                      rtol=1e-12)


def test_half_spectrum_derivatives_match_full_complex_fft(grid32, rng):
    """deriv and laplacian on the half spectrum against a full complex
    numpy.fft reference that masks the k = -N/2 row and column."""
    g = grid32
    x = rng.standard_normal((3, 32, 32))
    k = np.fft.fftfreq(32, d=1.0 / 32)
    kx, ky = k[:, None], k[None, :]
    keep = (kx != -16) & (ky != -16)
    full = np.fft.fft2(x, axes=(-2, -1))

    def reference(multiplier):
        return np.real(np.fft.ifft2(multiplier * keep * full, axes=(-2, -1)))

    spec = g.to_spec(x)
    for axis, wave in ((1, kx), (2, ky)):
        got = g.to_phys(g.deriv(spec, axis))
        assert np.max(np.abs(got - reference(1j * wave))) < 1e-12
    got = g.to_phys(g.laplacian(spec))
    assert np.max(np.abs(got - reference(-(kx**2 + ky**2)))) < 1e-12


def test_conj_symmetry_defect_flags_unpaired_column_mode():
    spec = np.zeros((3, 32, 17), dtype=complex)
    spec[0, 3, 0] = 1.0
    spec[0, -3, 0] = 1.0  # the conjugate partner of (3, 0)
    assert _conj_symmetry_defect(spec) == 0.0
    spec[0, -3, 0] = 0.5
    assert _conj_symmetry_defect(spec) == 0.25


def _record_calls(monkeypatch, name):
    """The leading slice count of every call of the grid's kernel ``name``
    (``rfft_n_even``, a forward chunk's first pass, or ``ifft``, an inverse
    chunk's)."""
    calls = []
    kernels = nsgl.grid._pfu
    inner = getattr(kernels, name)

    def recorded(a, *args, **kwargs):
        calls.append(int(np.prod(np.shape(a)[:-2])))
        return inner(a, *args, **kwargs)

    patched = {k: getattr(kernels, k) for k in ("rfft_n_even", "fft", "ifft", "irfft")}
    patched[name] = recorded
    monkeypatch.setattr(nsgl.grid, "_pfu", types.SimpleNamespace(**patched))
    return calls


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_stacked_transforms_equal_one_call_per_slice(n, monkeypatch):
    """A stack larger than CHUNK_BYTES goes through in chunks that stay
    within it (192 slices per chunk at N = 16, 3 at N = 128), and every slice
    of the result is bitwise equal to a transform call of its own."""
    g = SpectralGrid(n)
    per_call = max(1, CHUNK_BYTES // (8 * g.size))
    lead = (2, per_call + 1)
    phys = np.random.default_rng(n).standard_normal((*lead, n, n))
    singles = [np.fft.rfft2(p, norm="forward") for p in phys.reshape(-1, n, n)]

    for name, transform, src, expected in (
        ("rfft_n_even", g.to_spec, phys, singles),
        ("ifft", g.to_phys, np.stack(singles).reshape(*lead, *g.spec_shape),
         [np.fft.irfft2(s, s=(n, n), norm="forward") for s in singles]),
    ):
        calls = _record_calls(monkeypatch, name)
        got = transform(src)
        assert calls == [per_call, per_call, 2]
        assert got.shape[:2] == lead
        flat = got.reshape(-1, *got.shape[2:])
        assert len(flat) == len(expected)
        for a, b in zip(flat, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("paths", [None, 3])
def test_one_chunk_and_chunked_transforms_equal_one_call_per_slice(n, extra, paths,
                                                                   monkeypatch):
    """A stack of at most ``per_call`` slices goes to the kernels as it is:
    one call, on the very input array, with its own leading shape.  One
    more slice or row of slices, and it goes in chunks of ``per_call``.
    Either way, for leading shapes (C,), at ``per_call`` and ``per_call + 1``
    slices, and (3, C), at ``per_call`` and ``per_call + 3`` (``per_call``
    is 192, 48, 12 and 3), forward, inverse and in-place inverse give every
    slice the bytes of a transform call of its own."""
    g = SpectralGrid(n)
    per_call = max(1, CHUNK_BYTES // (8 * g.size))
    lead = (per_call + extra,) if paths is None else (paths, per_call // paths + extra)
    slices = int(np.prod(lead))
    one_chunk = extra == 0
    assert (slices <= per_call) == one_chunk
    phys = np.random.default_rng(n + extra).standard_normal((*lead, n, n))
    singles = [np.fft.rfft2(p, norm="forward") for p in phys.reshape(-1, n, n)]
    spec = np.stack(singles).reshape(*lead, *g.spec_shape)
    back = [np.fft.irfft2(s, s=(n, n), norm="forward") for s in singles]

    seen = []
    kernels = nsgl.grid._pfu

    def first_pass(fn):
        def recorded(a, *args, **kwargs):
            seen.append(a)
            return fn(a, *args, **kwargs)
        return recorded

    monkeypatch.setattr(nsgl.grid, "_pfu", types.SimpleNamespace(
        rfft_n_even=first_pass(kernels.rfft_n_even), fft=kernels.fft,
        ifft=first_pass(kernels.ifft), irfft=kernels.irfft))
    for src, run, expected in (
        (phys, g.to_spec, singles),
        (spec, g.to_phys, back),
        (spec.copy(), lambda x: g.to_phys(x, in_place=True), back),
    ):
        seen.clear()
        got = run(src)
        if one_chunk:
            assert len(seen) == 1 and seen[0] is src
        else:
            assert [len(a) for a in seen] == [per_call] * (slices // per_call) + \
                [slices % per_call] * (slices % per_call > 0)
        assert got.shape[:-2] == lead
        flat = got.reshape(-1, *got.shape[-2:])
        assert len(flat) == len(expected)
        for a, b in zip(flat, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [16, 18, 32, 48, 64, 128])
def test_chunked_transforms_write_their_whole_output(n):
    """The grid's kernel calls give ``numpy.fft.rfftn`` / ``irfftn`` with
    ``norm="forward"`` byte for byte, for a stack that crosses the budget,
    and write every byte of their output with ``out=``: into a NaN-filled
    buffer, and, for the inverse, over its own input.  At the sizes that are
    not powers of two, 18 and 48, the forward factor ``1.0 / n`` is not
    exact, so it has to be numpy's ``reciprocal``."""
    g = SpectralGrid(n)
    assert 1.0 / n == np.reciprocal(n, dtype=np.float64)
    count = 2 * max(1, CHUNK_BYTES // (8 * g.size)) + 1  # the last chunk partial
    phys = np.random.default_rng(n + 1).standard_normal((count, n, n))
    spec_ref = np.fft.rfftn(phys, axes=(-2, -1), norm="forward")
    phys_ref = np.fft.irfftn(spec_ref, s=(n, n), axes=(-2, -1), norm="forward")

    out = np.full(spec_ref.shape, np.nan, np.complex128)
    assert g.to_spec(phys, out=out) is out
    assert out.tobytes() == spec_ref.tobytes()
    out = np.full(phys.shape, np.nan)
    assert g._chunked(spec_ref, out) is out
    assert out.tobytes() == phys_ref.tobytes()
    spec = spec_ref.copy()
    got = g.to_phys(spec, in_place=True)
    assert np.shares_memory(got, spec)
    assert got.tobytes() == phys_ref.tobytes()
