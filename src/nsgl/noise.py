"""Truncated cylindrical Wiener forcing and the scalar director noise.

The velocity noise is W(t) = sum_j q_j w_j(t) e_j over real solenoidal
Fourier pairs e_j orthonormal in L2, with q_j = (1 + |k|^2)^(-gamma/2).
The director noise is a single scalar Brownian motion eta shared by every
grid point, entering through rotations about the static axis field h, given
as its (3, N, N) grid values; ``h = None`` is the one switch that turns the
director noise off.  An increment's dW is a plain (2, N, N/2+1) half
spectrum, read-only like every array a model holds.

Increments are drawn from a counter-based generator keyed by
(seed, path_id) with the counter encoding (step, level, slot), so any step
of any path is reproducible in isolation and refined replays of a rejected
step consume disjoint substreams.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

from .grid import SpectralGrid, grad_pair

__all__ = ["NoiseModel", "sample_increment"]

_NORM = 1.0 / (np.pi * np.sqrt(2.0))  # L2-normalizes cos(k.x) on the torus


@dataclass(frozen=True)
class NoiseModel:
    """Noise specification attached to one sample path.

    Parameters
    ----------
    grid : SpectralGrid
    gamma : float
        Spectral decay exponent; must exceed 2 so the V-weighted mass of Q
        stays bounded as the cutoff grows.
    mode_cutoff : int
        Retain every sin/cos pair with 0 < |k| <= mode_cutoff; 0 means N // 4.
        Must be >= 0 and stay inside the dealias region (<= N/3).
    seed, path_id : int
        Stream key, each in [0, 2**64); distinct path_ids give independent
        Brownian paths.
    h : ndarray or None
        Static axis field of the director rotations, grid values of shape
        (3, N, N), held as a read-only copy; None switches the director
        noise off.
    """

    grid: SpectralGrid
    gamma: float = 3.0
    mode_cutoff: int = 0  # 0 means the default N // 4
    seed: int = 0
    path_id: int = 0
    velocity_on: bool = True
    h: np.ndarray | None = field(default=None, repr=False, compare=False)
    # derived tables
    k_points: np.ndarray = field(init=False, repr=False, compare=False)
    q_weights: np.ndarray = field(init=False, repr=False, compare=False)
    h_grad: np.ndarray | None = field(init=False, repr=False, compare=False)
    # the directions i (0 for x1, 1 for x2) whose h_grad[i] is not identically
    # zero: () for a constant h, (0,) for h = cos x1
    h_dirs: tuple = field(init=False, repr=False, compare=False)
    h_unit: np.ndarray | None = field(init=False, repr=False, compare=False)
    # the distinct values of |h| and, per grid point, its index among them:
    # at most N values for every profile, so the rotation's trig runs there
    h_mag_values: np.ndarray | None = field(init=False, repr=False, compare=False)
    h_mag_index: np.ndarray | None = field(init=False, repr=False, compare=False)
    # sample_increment's scatter tables: per k point the coefficient scale
    # 0.5 * _NORM * q; then per entry written, in the flattened (2, N, N/2+1)
    # half spectrum, its index ``scatter_at``, its source ``scatter_from`` in
    # the coefficients followed by their conjugates, and the component
    # ``scatter_perp`` (complex128) of the unit vector perpendicular to k.
    # A point with k2 >= 0 is written at k, one with k2 <= 0 as its conjugate
    # at -k; no two entries share an index
    q_scale: np.ndarray = field(init=False, repr=False, compare=False)
    scatter_at: np.ndarray = field(init=False, repr=False, compare=False)
    scatter_from: np.ndarray = field(init=False, repr=False, compare=False)
    scatter_perp: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.n_modes
        if self.mode_cutoff < 0:
            raise ValueError(f"noise.mode_cutoff must be >= 0, got {self.mode_cutoff}")
        cutoff = self.mode_cutoff if self.mode_cutoff > 0 else n // 4
        if not (self.gamma > 2.0):
            raise ValueError(f"noise.gamma must be > 2, got {self.gamma}")
        for key in ("seed", "path_id"):
            _check_key(key, getattr(self, key))
        if cutoff > n / 3.0:
            raise ValueError(
                f"noise.mode_cutoff must stay within the dealias region (<= N/3), got {cutoff}"
            )
        object.__setattr__(self, "mode_cutoff", cutoff)
        # half-plane enumeration: k1 > 0, or k1 == 0 and k2 > 0; lexicographic
        pts = [
            (k1, k2)
            for k1 in range(0, cutoff + 1)
            for k2 in range(-cutoff, cutoff + 1)
            if (k1 > 0 or (k1 == 0 and k2 > 0)) and 0 < k1 * k1 + k2 * k2 <= cutoff * cutoff
        ]
        k_points = np.array(pts, dtype=np.int64).reshape(-1, 2)
        ksq = np.sum(k_points.astype(np.float64) ** 2, axis=1)
        q = (1.0 + ksq) ** (-self.gamma / 2.0)
        k1, k2 = k_points[:, 0], k_points[:, 1]
        norm = np.sqrt((k1 * k1 + k2 * k2).astype(np.float64))
        perp = np.stack([-k2 / norm, k1 / norm])
        own, mirror = np.flatnonzero(k2 >= 0), np.flatnonzero(k2 <= 0)
        width = n // 2 + 1
        at = [c * n * width + flat for c in range(2)
              for flat in (k1[own] % n * width + k2[own],
                           (-k1[mirror]) % n * width - k2[mirror])]
        tables = [
            ("k_points", k_points), ("q_weights", q), ("q_scale", 0.5 * _NORM * q),
            ("scatter_at", np.concatenate(at)),
            ("scatter_from", np.tile(np.concatenate([own, len(k_points) + mirror]), 2)),
            ("scatter_perp", np.concatenate([perp[:, own], perp[:, mirror]], axis=1)
             .astype(np.complex128).reshape(-1)),
        ]
        for name, arr in tables:
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.h is not None:
            h = np.array(self.h, dtype=np.float64)
            if h.shape != (3, n, n):
                raise ValueError(f"noise.h must have shape {(3, n, n)}, got {h.shape}")
            h.setflags(write=False)
            object.__setattr__(self, "h", h)
            hg = grad_pair(self.grid, self.grid.to_spec(h))
            mag = np.sqrt(np.sum(h**2, axis=0))
            safe = np.where(mag > 0.0, mag, 1.0)
            unit = h / safe
            # first-seen order, one row of Python floats at a time: np.unique's
            # sort code, or the floats of the whole grid, cost 0.2 to 1.5 MB of RSS
            seen = {}
            index = [[seen.setdefault(v, len(seen)) for v in row.tolist()] for row in mag]
            for arr, name in [(hg, "h_grad"), (unit, "h_unit"),
                              (np.array(list(seen)), "h_mag_values"),
                              (np.array(index), "h_mag_index")]:
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
            object.__setattr__(self, "h_dirs", tuple(i for i in range(2) if np.any(hg[i])))
        else:
            for name in ("h_grad", "h_unit", "h_mag_values", "h_mag_index"):
                object.__setattr__(self, name, None)
            object.__setattr__(self, "h_dirs", ())

    def for_path(self, path_id: int) -> NoiseModel:
        """This model on path ``path_id``: a copy that shares every table,
        since none depends on the path (``dataclasses.replace`` would build
        them all again, the h tables included)."""
        _check_key("path_id", path_id)
        model = copy.copy(self)
        object.__setattr__(model, "path_id", path_id)
        return model

    @property
    def trace_q(self) -> float:
        """Trace of Q in L2: sum of q_j^2 over the retained basis."""
        return float(2.0 * np.sum(self.q_weights**2))


def _check_key(key: str, value: int) -> None:
    if not 0 <= value < 2**64:
        raise ValueError(f"noise.{key} must be in [0, 2**64), got {value}")


@dataclass(frozen=True)
class WienerIncrement:
    """Increments applied over one (sub)step: ``dW`` is the read-only
    (2, N, N/2+1) half spectrum of the velocity increment."""

    dW: np.ndarray
    d_eta: float


@functools.cache
def _generator() -> np.random.Generator:
    """The one generator every draw uses.  Built on first use: numpy 2 imports
    ``numpy.random`` lazily, about 24 ms, which a command that draws nothing
    (``dump-config``) does not pay."""
    return np.random.Generator(np.random.Philox(key=0))


def _stream(model: NoiseModel, step_index: int, level: int, slot: int) -> np.random.Generator:
    """The generator of ``Philox(key=(seed, path_id), counter=(0, slot, level,
    step_index))``, positioned where a fresh one starts.  Its whole state is
    set here, so a draw depends on its key and counter alone, whatever came
    before it; it is shared, so it stays valid only until the next call."""
    gen = _generator()
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, slot, level, step_index], "key": [model.seed, model.path_id]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def sample_increment(model: NoiseModel, dt: float, step_index: int,
                     level: int = 0, slot: int = 0) -> WienerIncrement:
    """Draw (dW, d_eta) for one step; deterministic in (seed, path_id, step, level, slot).

    The draw layout is fixed (2 per k point for W, then one for eta) so the
    same stream position always feeds the same mode.
    """
    rng = _stream(model, step_index, level, slot)
    m = len(model.k_points)
    xi = rng.standard_normal(2 * m + 1) * np.sqrt(dt)
    g = model.grid
    spec = np.zeros((2, *g.spec_shape), dtype=np.complex128)
    coeff = model.q_scale * (xi[0:2 * m:2] - 1j * xi[1:2 * m:2])
    # the half spectrum stores k2 >= 0: a point with k2 < 0 is written as
    # its conjugate at -k, and the k2 = 0 column gets both k and -k
    both = np.concatenate([coeff, np.conj(coeff)])
    spec.put(model.scatter_at, both[model.scatter_from] * model.scatter_perp)
    spec.setflags(write=False)
    return WienerIncrement(dW=spec, d_eta=float(xi[-1]))
