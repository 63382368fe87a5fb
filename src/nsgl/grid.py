"""Fourier grid, transforms and spectral norms on the periodic square [0, 2*pi)^2.

Spectral convention: f(x) = sum_k c(k) exp(i k.x) with integer wavenumbers,
so ``to_spec`` is the raw FFT divided by N^2 and Parseval reads
|f|_{L2}^2 = (2*pi)^2 * sum_k |c(k)|^2.  The scaling is numpy's
``norm="forward"``, applied inside the transform call rather than as a
separate array pass; for power-of-two N it is bitwise equal to dividing
numpy's default ``rfft2`` by N^2 and multiplying its default ``irfft2`` by N^2.

A field is a plain array, a stack of grid values (..., N, N) or of half
spectra; a simulation state is one stack of each, u's 2 components then
n's 3 (``nsgl.stepper.SimState``).  Every field is real, so c(-k) =
conj(c(k)) and only the Hermitian half spectrum is stored: spectral arrays
have shape (..., N, N/2+1), holding k1 in fftfreq order (0, 1, ..., N/2-1,
-N/2, ..., -1) along the first spectral axis and k2 = 0, 1, ..., N/2 along
the second.  ``to_spec`` is a real-to-complex ``rfftn`` over the last two
axes and ``to_phys`` its inverse ``irfftn``, which reads only the Hermitian
part of the two self-conjugate columns k2 = 0 and k2 = N/2.  A sum over the
full spectrum becomes a sum over the half with ``herm_weight``: 1 on those
two columns, whose modes appear once, and 2 elsewhere, where each stored
mode stands for itself and its conjugate.

Derivatives act in spectral space, as products with the grid's tables; a
quadratic product is evaluated pointwise on the collocation grid and
dealiased by the 2/3 rule.

A transform takes a stack (..., N, N) or (..., N, N/2+1) and sends it,
in chunks of at most ``CHUNK_BYTES`` of physical slices, through the
pocketfft kernels that ``numpy.fft.rfftn`` / ``irfftn`` end in: one 1-D
pass per axis, each chunk written with ``out=`` into its part of one
result array.  The kernels give numpy.fft's bytes without its per-call
Python layer.  A stage builds its whole input as one stack, so its
transforms cost one chunk up to N = 64, and a stack within the budget goes
to the kernels as it is, with no reshape or slicing around them.  A
chunked or batched transform gives each slice the same bits as a call of
its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
# The gufuncs numpy.fft's rfftn/irfftn end in, one 1-D pass per axis (numpy
# >= 2.0).  Called directly, a chunk skips numpy.fft's n-d wrapper.  Timed
# alone at N = 32 (2-vCPU VM, numpy 2.4.6), that wrapper added about 10 us
# to a forward call and 5 us to an inverse one, where a one-slice chunk
# takes 11 us; along an ensemble run, where its code runs cold, the fitted
# fixed cost per call fell from 37-47 to 17-18 us.  norm="forward" is the
# factor 1/n on each forward pass and 1 on each inverse pass.
from numpy.fft import _pocketfft_umath as _pfu

__all__ = [
    "SpectralGrid",
    "leray_project_spec",
    "grad_pair",
    "sobolev_norm",
    "random_band_limited",
]

# Largest physical size in bytes, N*N*8 per 2D slice, of one transform
# chunk: 48 slices at N = 32, 12 at N = 64, 3 at N = 128.  Per slice, larger
# chunks were no faster, and a chunk's inverse fills a temporary its size.
CHUNK_BYTES = 384 * 1024

# a kernel's core axis at -2, for its input, its factor and its output
_AXIS_2 = [(-2,), (), (-2,)]


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform N x N collocation grid with precomputed wavenumber tables.

    Parameters
    ----------
    n_modes : int
        Number of collocation points per direction. Must be even and >= 16
        so the 2/3-rule dealiasing mask is nonempty and symmetric.

    Notes
    -----
    Index [i, j] corresponds to the point (x1[i], x2[j]).  Wavenumber tables
    broadcast over the half spectrum: ``kx`` has shape (N, 1), ``ky`` shape
    (1, N/2+1).  ``k2_safe`` is |k|^2 with the zero mode set to 1, the Leray
    projection's divisor, in complex128.  ``dealias_mask`` keeps |k1|, |k2| <= N/3.  ``diff_mask``
    kills the unpaired Nyquist lines, the k1 = -N/2 row and the k2 = N/2
    column, after every differentiation.  ``herm_weight`` (shape
    (1, N/2+1)) weights half-spectrum sums so they equal full-spectrum sums,
    and ``grad_weight`` = herm_weight * k2 * diff_mask (shape (N, N/2+1))
    is the weight that makes (2 pi)^2 sum grad_weight |c|^2 the L2 norm
    squared of the gradient the tables take: by Parseval, the grid
    quadrature of |grad f|^2 up to roundoff, with no transform.

    The tables a step multiplies spectra by are held in complex128, the
    spectra's dtype, so no call casts a bool or float table first:
    ``dealias_c`` (the mask); the Leray projection's ``k_c``, shape
    (2, N, N/2+1), k1 and k2 at every mode, and its divisor ``k2_safe``,
    full-size so that none of its products broadcasts along an inner axis
    (numpy buffers such a ufunc); and ``dlap_c``, shape (3, 1, N, N/2+1),
    the multipliers of d1, d2 (i*k*diff_mask) and the Laplacian
    (-k2 * diff_mask), whose first two are ``grad_c``.
    ``np.multiply(dlap_c[j], spec, out=...)`` writes derivative j of a
    (C, N, N/2+1) spectrum stack.  ``curl_c``, shape (2, N, N/2+1), holds
    k1 k2 / |k|^2 and (k2^2 - k1^2) / |k|^2 times the dealias mask, 0 at
    k = 0: the projected divergence of a symmetric 2D tensor with the
    spectra D of sigma_11 - sigma_22 and s12 of sigma_12 is the
    perpendicular gradient (i k2 W, -i k1 W) of
    W = curl_c[0] D + curl_c[1] s12 (the stream-function form).  numpy
    multiplies and divides a complex array by a real or bool one by
    casting it to complex first, so the products keep their bits (the
    Laplacian's up to the sign of a zero, since it folds two factors into
    one).
    """

    n_modes: int
    x1: np.ndarray = field(init=False, repr=False, compare=False)
    x2: np.ndarray = field(init=False, repr=False, compare=False)
    kx: np.ndarray = field(init=False, repr=False, compare=False)
    ky: np.ndarray = field(init=False, repr=False, compare=False)
    k2: np.ndarray = field(init=False, repr=False, compare=False)
    k2_safe: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_mask: np.ndarray = field(init=False, repr=False, compare=False)
    diff_mask: np.ndarray = field(init=False, repr=False, compare=False)
    herm_weight: np.ndarray = field(init=False, repr=False, compare=False)
    grad_weight: np.ndarray = field(init=False, repr=False, compare=False)
    dealias_c: np.ndarray = field(init=False, repr=False, compare=False)
    dlap_c: np.ndarray = field(init=False, repr=False, compare=False)
    grad_c: np.ndarray = field(init=False, repr=False, compare=False)
    k_c: np.ndarray = field(init=False, repr=False, compare=False)
    curl_c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_modes
        if n < 16 or n % 2 != 0:
            raise ValueError(f"grid.n_modes must be even and >= 16, got {n}")
        x = 2.0 * np.pi * np.arange(n) / n
        kx = np.fft.fftfreq(n, d=1.0 / n)[:, None]  # 0, 1, ..., n/2-1, -n/2, ..., -1
        ky = np.fft.rfftfreq(n, d=1.0 / n)[None, :]  # 0, 1, ..., n/2
        k2 = kx**2 + ky**2
        cut = n / 3.0
        dealias = (np.abs(kx) <= cut) & (ky <= cut)
        diff = (kx != -(n // 2)) & (ky != n // 2)
        weight = np.full(ky.shape, 2.0)
        weight[:, [0, -1]] = 1.0
        c = np.complex128
        dlap = np.stack([1j * kx * diff, 1j * ky * diff, (-k2 * diff).astype(c)])[:, None]
        k2_safe = np.where(k2 == 0.0, 1.0, k2)  # both numerators below are 0 at k = 0
        curl = np.stack(np.broadcast_arrays(kx * ky / k2_safe, (ky**2 - kx**2) / k2_safe))
        for name, val in [
            ("x1", x), ("x2", x), ("kx", kx), ("ky", ky),
            ("k2", k2), ("k2_safe", k2_safe.astype(c)),
            ("dealias_mask", dealias), ("diff_mask", diff), ("herm_weight", weight),
            ("grad_weight", weight * k2 * diff),
            ("dealias_c", dealias.astype(c)), ("dlap_c", dlap), ("grad_c", dlap[:2]),
            ("k_c", np.stack(np.broadcast_arrays(kx, ky)).astype(c)),
            ("curl_c", (curl * dealias).astype(c)),
        ]:
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def size(self) -> int:
        return self.n_modes * self.n_modes

    @property
    def spec_shape(self) -> tuple[int, int]:
        """Trailing shape (N, N/2+1) of a half-spectrum array."""
        return (self.n_modes, self.n_modes // 2 + 1)

    @property
    def dx(self) -> float:
        return 2.0 * np.pi / self.n_modes

    @property
    def quad_weight(self) -> float:
        """Quadrature weight (2*pi/N)^2; exact for band-limited integrands."""
        return self.dx * self.dx

    def meshgrid(self):
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    # -- transforms ---------------------------------------------------------

    def to_spec(self, phys: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Half spectra of a stack of physical slices (..., N, N), written
        into ``out`` (C-contiguous; allocated when None)."""
        if out is None:
            out = np.empty(phys.shape[:-2] + self.spec_shape, np.complex128)
        return self._chunked(phys, out)

    def to_phys(self, spec: np.ndarray, in_place: bool = False) -> np.ndarray:
        """Physical slices of a stack of half spectra (..., N, N/2+1);
        ``in_place`` writes them over the C-contiguous ``spec``, a stage input
        that nothing reads afterwards.  A chunk's first pass reads it in full
        into a temporary before anything is written, and a chunk's physical
        slices end before the next chunk's spectra begin
        (8 N^2 < 16 N (N/2+1) bytes per slice)."""
        n = self.n_modes
        shape = spec.shape[:-2] + (n, n)
        # in place: the leading float64s of the buffer (refused unless contiguous)
        out = np.ndarray(shape, np.float64, spec) if in_place else np.empty(shape)
        return self._chunked(spec, out)

    def _chunked(self, src: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The transform of every 2D slice of ``src`` into ``out``, forward
        when ``out`` is complex, in numpy.fft's passes.  A stack whose
        physical slices fit in ``CHUNK_BYTES`` (every stage stack up to
        N = 64) goes to the kernels as it is, with no reshape or slicing
        around them; a larger one goes in chunks of at most ``CHUNK_BYTES``
        of physical slices.  Forward, the last axis goes into ``out`` and
        axis -2 is transformed there in place; back, axis -2 goes into a
        temporary and the last axis into ``out``."""
        forward = out.dtype == np.complex128
        if (src if forward else out).nbytes <= CHUNK_BYTES:
            chunks = ((src, out),)
        else:
            src = src.reshape((-1,) + src.shape[-2:])
            dst = out.reshape((-1,) + out.shape[-2:], copy=False)
            step = max(1, CHUNK_BYTES // (8 * self.size))
            chunks = [(src[i:i + step], dst[i:i + step]) for i in range(0, len(src), step)]
        fct = 1.0 / self.n_modes
        for a, b in chunks:
            if forward:
                _pfu.rfft_n_even(a, fct, out=b)
                _pfu.fft(b, fct, out=b, axes=_AXIS_2)
            else:
                cols = _pfu.ifft(a, 1.0, out=np.empty(a.shape, np.complex128), axes=_AXIS_2)
                _pfu.irfft(cols, 1.0, out=b)
        return out

    # -- spectral calculus --------------------------------------------------

    def deriv(self, spec: np.ndarray, axis: int) -> np.ndarray:
        """Partial derivative along axis 1 or 2, Nyquist lines zeroed."""
        return self.grad_c[axis - 1, 0] * spec

    def laplacian(self, spec: np.ndarray) -> np.ndarray:
        return self.dlap_c[2, 0] * spec

    def dealias(self, spec: np.ndarray) -> np.ndarray:
        return spec * self.dealias_c

    # -- quadrature ---------------------------------------------------------
    # reductions are ndarray methods: the same ufunc reduce as np.sum and
    # np.max, without their Python wrappers

    def integrate(self, phys: np.ndarray) -> float:
        return float(phys.sum()) * self.quad_weight

    def l2_norm_phys(self, phys: np.ndarray) -> float:
        """L2 norm of a (multi-component) physical field."""
        return math.sqrt((phys * phys).sum() * self.quad_weight)

    def spec_sum(self, values: np.ndarray) -> float:
        """Full-spectrum sum of a real per-mode quantity given on the half spectrum."""
        return float((self.herm_weight * values).sum())

    def l2_norm_spec(self, spec: np.ndarray) -> float:
        return 2.0 * np.pi * math.sqrt(self.spec_sum(abs(spec) ** 2))

    def l2_inner_spec(self, a: np.ndarray, b: np.ndarray) -> float:
        return (2.0 * np.pi) ** 2 * self.spec_sum((a * b.conj()).real)

    def divergence_defect(self, u_spec: np.ndarray) -> float:
        """|div u| / |u| in L2 for the (2, N, N/2+1) half spectra of a velocity;
        valid states are solenoidal."""
        div = self.deriv(u_spec[0], 1) + self.deriv(u_spec[1], 2)
        return self.l2_norm_spec(div) / max(self.l2_norm_spec(u_spec), 1e-300)


def leray_project_spec(grid: SpectralGrid, u_spec: np.ndarray, out=None) -> np.ndarray:
    """Remove the gradient part mode-by-mode and zero the mean, into ``out``
    when given (it may be ``u_spec``).

    The gradient part is ``(k * kdotu) / k2_safe``, multiplied before it is
    divided: ``k * (kdotu / k2_safe)`` rounds differently.  Both components
    are taken at once against the full-size table ``grid.k_c``: k.u is one
    product and the sum of its two rows, the gradient part one product
    divided in place, and the subtraction one call, so no operand
    broadcasts along an inner axis.  In place it traces 5 spectrum slices
    at N <= 64, where numpy buffers k.u and ``k2_safe`` broadcast over the
    component axis, and 3 at N = 128; one component at a time traced 3.
    """
    prod = grid.k_c * u_spec
    kdotu = np.add(prod[0], prod[1])
    grad = np.multiply(grid.k_c, kdotu, out=prod)
    grad /= grid.k2_safe
    out = np.subtract(u_spec, grad, out=out)
    out[:, 0, 0] = 0.0
    return out


def grad_pair(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    """Physical partial derivatives (d1 f, d2 f) of a spectral component
    stack, as one (2, C, N, N) array."""
    return grid.to_phys(grid.grad_c * spec)


def sobolev_norm(grid: SpectralGrid, spec: np.ndarray, order: float,
                 homogeneous: bool, squared: bool = False) -> float:
    """Spectral Sobolev norm of order ``order`` of a stack of half spectra.

    The homogeneous form is ((2*pi)^2 * sum |k|^(2s) |c|^2)^(1/2); the full
    form adds the |k|^0 (L2) term.  With ``squared``, ``spec`` holds |c|^2
    already, for a caller that takes several norms of one spectrum: the
    same bits as the norm of c.
    """
    weight = _sobolev_weight(grid, order, homogeneous)
    sq = spec if squared else np.abs(spec) ** 2
    return float(2.0 * np.pi * np.sqrt(grid.spec_sum(weight * sq)))


@functools.lru_cache(maxsize=16)
def _sobolev_weight(grid: SpectralGrid, order: float, homogeneous: bool) -> np.ndarray:
    """|k|^(2s) on the half spectrum (0 where |k|^(2s) is not finite), plus 1
    for the full norm; computed once per grid size, order and form (a family
    uses four)."""
    with np.errstate(divide="ignore"):
        weight = grid.k2**order if order != 0.0 else np.ones_like(grid.k2)
    weight = np.where(np.isfinite(weight), weight, 0.0)
    if not homogeneous:
        weight = weight + 1.0
    weight.setflags(write=False)
    return weight


def random_band_limited(grid: SpectralGrid, n_components: int, k_max: int,
                        rng: np.random.Generator, amplitude: float = 1.0) -> np.ndarray:
    """Smooth random mean-zero physical field with |k1|, |k2| <= k_max,
    sup-normalized."""
    white = rng.standard_normal((n_components, grid.n_modes, grid.n_modes))
    spec = grid.to_spec(white)
    box = (np.abs(grid.kx) <= k_max) & (np.abs(grid.ky) <= k_max)
    spec = spec * box
    spec[:, 0, 0] = 0.0
    phys = grid.to_phys(spec)
    peak = max(float(np.max(np.abs(phys))), 1e-300)
    return phys * (amplitude / peak)
