"""Operator-splitting time integrator.

One Strang step of size dt:

    half diffusion -> half reaction -> [rotation noise; exchange drift + dW]
    -> half reaction -> half diffusion

Diffusion (heat multiplier), the radial reaction map, and the rotation are
evaluated exactly; the central exchange stage uses an explicit midpoint rule
for the transport/stress drift with the Wiener increment added at the end,
so the composite is second order deterministically and the discrete energy
ledger closes at order dt^2.  Transport and stress exist only in that
drift kernel, ``coupling_drift_spec``, dealiased by the 2/3 rule and
checked by ``nsgl.checks``; its velocity part is the perpendicular
gradient of one stream function, solenoidal without a projection, and
the stage projects u once, at its end.  The state is two stacks
(``SimState``): the (5, N, N/2+1) half spectra of u and n, which a step
builds as one array, and their (5, N, N) grid values, one ``to_phys`` of
it.

A step whose CFL bound fails is replayed as two half steps drawing their
increments from disjoint counter substreams; rejected attempts never consume
randomness, so every applied increment is a fresh Gaussian of the correct
variance and replays stay bitwise reproducible.  Paths that share one noise
stream (a coupled family) can share the draws too: ``step`` takes a
``draws`` dict that keeps each increment under its counter ``(step, level,
slot)``, so the second path to reach a counter reads the first one's draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid, leray_project_spec
from .noise import NoiseModel, sample_increment

__all__ = [
    "GLParams",
    "StepperConfig",
    "SimState",
    "StepLedger",
    "CflError",
    "step",
    "required_level",
    "diffuse_spec",
    "gl_reaction_phys",
    "rotate_phys",
    "coupling_drift_spec",
    "cross3",
]

class CflError(RuntimeError):
    """Raised when halving the step max_halvings times still violates CFL."""


@dataclass(frozen=True)
class GLParams:
    """Relaxation parameters: penalty f(n) = (1/epsilon^2)(1-|n|^2) n."""

    epsilon: float

    def __post_init__(self):
        # the penalty and the report divide by epsilon^2, so it must not underflow
        if not (self.epsilon > 0.0 and self.epsilon**2 > 0.0):
            raise ValueError(f"gl.epsilon must be > 0 with a nonzero square, got {self.epsilon}")


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    cfl_safety: float = 0.5
    max_halvings: int = 8

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf):
            raise ValueError(f"stepper.dt must be finite and > 0, got {self.dt}")
        if not (0.0 <= self.t_end < math.inf):
            raise ValueError(f"stepper.t_end must be finite and >= 0, got {self.t_end}")
        # a run ends at n_steps * dt, so t_end must be on the step clock
        if not (self.t_end / self.dt < math.inf and self.on_clock(self.t_end, self.n_steps)):
            raise ValueError(f"stepper.t_end must be a whole number of stepper.dt steps, "
                             f"got t_end = {self.t_end} with dt = {self.dt}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"stepper.cfl_safety must be in (0, 1], got {self.cfl_safety}")
        if self.max_halvings < 0:
            raise ValueError(f"stepper.max_halvings must be >= 0, got {self.max_halvings}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def on_clock(self, t: float, step: int) -> bool:
        """Whether t is step ``step`` of this dt, to 1e-9 * max(1, |t|): the
        tolerance of a resumed checkpoint's clock.  A non-finite t (NaN or
        +-inf) is never on it."""
        return math.isfinite(t) and abs(t - step * self.dt) <= 1e-9 * max(1.0, abs(t))


@dataclass(frozen=True, eq=False)  # compared and hashed by identity: it holds arrays
class SimState:
    """Immutable snapshot of the pair (u, n) as two read-only stacks:
    ``spec``, the canonical half spectra (5, N, N/2+1), u's 2 components
    then n's 3, and ``phys``, their grid values (5, N, N) in the same order.
    A stepped or loaded state's ``phys`` is the ``to_phys`` of its ``spec``;
    one built ``from_arrays`` (initial data) keeps the values as given, and
    its ``spec`` is their ``to_spec``."""

    t: float
    step: int
    grid: SpectralGrid
    spec: np.ndarray
    phys: np.ndarray

    def __post_init__(self):
        n = self.grid.n_modes
        for name, shape, dtype in (("spec", (5, *self.grid.spec_shape), np.complex128),
                                   ("phys", (5, n, n), np.float64)):
            arr = getattr(self, name)
            if arr.shape != shape or arr.dtype != dtype:
                raise ValueError(f"SimState.{name} must be {np.dtype(dtype)} of shape "
                                 f"{shape}, got {arr.dtype} of shape {arr.shape}")
            arr.setflags(write=False)

    @classmethod
    def from_arrays(cls, grid: SpectralGrid, u_phys, n_phys):
        """The initial state (t = 0, step 0) of the grid values u (2, N, N)
        and n (3, N, N)."""
        n = grid.n_modes
        u_phys, n_phys = np.asarray(u_phys), np.asarray(n_phys)
        if u_phys.shape != (2, n, n) or n_phys.shape != (3, n, n):
            raise ValueError(f"expected u of shape {(2, n, n)} and n of shape {(3, n, n)}, "
                             f"got {u_phys.shape} and {n_phys.shape}")
        phys = np.concatenate([u_phys, n_phys]).astype(np.float64, copy=False)
        return cls(t=0.0, step=0, grid=grid, spec=grid.to_spec(phys), phys=phys)

    # read-only views of u's and n's parts of the stacks
    u_spec = property(lambda self: self.spec[:2])
    n_spec = property(lambda self: self.spec[2:])
    u_phys = property(lambda self: self.phys[:2])
    n_phys = property(lambda self: self.phys[2:])


@dataclass
class StepLedger:
    """Applied-increment record of one logical step (summed over substeps).

    ``u_dw`` pairs the pre-noise velocity with dW; ``grad_cross_deta`` pairs
    grad(n) with n x grad(h) at the pre-rotation director, times d_eta;
    ``cross_sq_dt`` is the left-point accumulation of |n x grad h|_{L2}^2 dt
    (all three NaN for a step taken with ``noise_ledger=False``);
    ``n_substeps`` and ``level_max`` count the step's substeps and its
    deepest CFL halving.
    """

    u_dw: float = 0.0
    grad_cross_deta: float = 0.0
    cross_sq_dt: float = 0.0
    n_substeps: int = 0
    level_max: int = 0


# -- exact substep kernels ----------------------------------------------------

@functools.lru_cache(maxsize=16)
def _heat_multiplier(grid: SpectralGrid, dt: float) -> np.ndarray:
    """exp(-|k|^2 dt), computed once per grid size and step length (a run
    uses a handful: the half steps of dt and of its CFL halvings).  It is
    held in complex128, like the grid's tables, so no multiply casts it."""
    mult = np.exp(-grid.k2 * dt).astype(np.complex128)
    mult.setflags(write=False)
    return mult


def diffuse_spec(grid: SpectralGrid, spec: np.ndarray, dt: float, out=None) -> np.ndarray:
    return np.multiply(spec, _heat_multiplier(grid, dt), out=out)


def gl_reaction_phys(n_phys: np.ndarray, dt: float, epsilon: float, out=None) -> np.ndarray:
    """Exact flow of dn/dt = (1/eps^2)(1-|n|^2) n: logistic in |n|^2, fixed direction.

    |n|^2 evolves as y -> y / ((1-y) exp(-2 dt/eps^2) + y); the denominator is
    positive for every y >= 0, and the overflow-free form holds for any dt.
    """
    y0 = (n_phys * n_phys).sum(axis=0)
    decay = np.exp(-2.0 * dt / epsilon**2)
    denom = np.maximum((1.0 - y0) * decay + y0, 1e-300)  # 0/0 guard at n = 0
    return np.divide(n_phys, np.sqrt(denom), out=out)


def cross3(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cross product of (3, ...) component stacks, into ``out`` when given."""
    if out is None:
        out = np.empty(np.broadcast(a, b).shape, np.result_type(a, b))
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out


def rotate_phys(n_phys: np.ndarray, h_unit, h_mag, d_eta: float, out=None,
                h_index=None) -> np.ndarray:
    """Exact flow of dn = (n x h) deta: rotation by -|h| deta about h/|h|.
    ``out`` may be ``n_phys``.  With ``h_index``, ``h_mag[h_index]`` is |h|:
    the trig runs on its distinct values only (``NoiseModel.h_mag_values``)."""
    theta = -h_mag * d_eta
    c = np.cos(theta)
    s = np.sin(theta)
    if h_index is not None:
        c, s = c[h_index], s[h_index]
    axn = cross3(h_unit, n_phys)
    adotn = (h_unit * n_phys).sum(axis=0)
    return np.add(n_phys * c + axn * s, h_unit * (adotn * (1.0 - c)), out=out)


def coupling_drift_spec(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    """Minus the drift of the exchange stage on the (5, N, N/2+1) stack of u
    then n: r = (P div(u (x) u + grad n (.) grad n), (u.grad) n), drift = -r.

    The velocity transport is taken in conservative form: for a solenoidal u
    inside the 2/3 band, the dealiased div(u (x) u) equals the dealiased
    (u.grad) u to roundoff, so u's convection and the Ericksen stress are one
    symmetric tensor sigma.  Every u that reaches the exchange stage meets
    that precondition: the initial velocity, the noise increments and the
    exchange output are all dealiased and solenoidal.  n is not
    band-limited, so its transport keeps the advective form.

    In 2D the projection removes sigma's isotropic part, a pure gradient,
    so P div sigma depends only on D = sigma_11 - sigma_22 and sigma_12: it
    is the perpendicular gradient (i k2 W, -i k1 W) of the stream function
    W = (k1 k2 D + (k2^2 - k1^2) sigma_12) / |k|^2, W(0) = 0, solenoidal and
    mean-free by construction (``grid.curl_c`` holds both factors with the
    dealias mask).  Each direction is one stacked transform stage: u and
    grad n go back to the grid in place (8 slices), and the n transport, D
    and sigma_12 come forward together (5 slices).  The inverse stack is laid
    out as (d1 n, u1; d2 n, u2), so that sigma_12 is one product summed over
    its 4 components and D the difference of their squares, summed.

    This is the package's only transport and stress kernel: gate 1 and
    ``nsgl check`` evaluate it for the skew transport of u and n and for the
    stress/transport energy pairing.
    """
    back = np.empty((2, 4, *spec.shape[1:]), np.complex128)
    for i in range(2):  # a contiguous out: a strided one makes numpy buffer the product
        np.multiply(grid.grad_c[i], spec[2:], out=back[i, :3])
    back[:, 3] = spec[:2]
    a = grid.to_phys(back, in_place=True)
    # ((u.grad) n, D, sigma_12); the products behind sigma_12 fill the first 4
    forward = np.empty((5, *a.shape[2:]))
    np.multiply(a[0], a[1], out=forward[:4]).sum(axis=0, out=forward[4])
    np.multiply(a[0, 3], a[0, :3], out=forward[:3])
    forward[:3] += a[1, 3] * a[1, :3]
    sq = np.square(a, out=a)
    sq[0] -= sq[1]
    sq[0].sum(axis=0, out=forward[3])
    del back, a, sq
    t = grid.to_spec(forward)
    del forward
    r = np.empty(spec.shape, np.complex128)
    w = t[3]
    np.multiply(grid.curl_c, t[3:], out=t[3:])
    w += t[4]
    np.multiply(grid.grad_c[1, 0], w, out=r[0])
    np.multiply(grid.grad_c[0, 0], w, out=r[1])
    np.negative(r[1], out=r[1])
    np.multiply(t[:3], grid.dealias_c, out=r[2:])
    return r


def midpoint_exchange(grid, spec, dt):
    """Exchange stage alone on the (5, N, N/2+1) stack of u then n: explicit
    midpoint rule for the transport/stress drift -r (``coupling_drift_spec``),
    u projected at the end.  Returns a new stack."""
    mid = spec - (0.5 * dt) * coupling_drift_spec(grid, spec)
    new = grid.dealias(spec - dt * coupling_drift_spec(grid, mid))
    del mid
    leray_project_spec(grid, new[:2], out=new[:2])
    return new


def _cfl_limit(state: SimState, cfg: StepperConfig) -> float:
    """Largest step meeting the advective CFL bound; inf when u is at rest."""
    speed = float(abs(state.u_phys).max())
    if speed <= 0.0:
        return math.inf
    return cfg.cfl_safety * state.grid.dx / speed


def required_level(state: SimState, cfg: StepperConfig) -> int:
    """Halvings needed so dt/2^level meets the advective CFL bound."""
    limit = _cfl_limit(state, cfg)
    if cfg.dt <= limit:
        return 0
    return int(np.ceil(np.log2(cfg.dt / limit)))


# -- composite step -----------------------------------------------------------

def step(state: SimState, cfg: StepperConfig, gl: GLParams, noise: NoiseModel,
         force_level: int | None = None, draws: dict | None = None,
         noise_ledger: bool = True) -> tuple[SimState, StepLedger]:
    """Advance one logical step of cfg.dt, splitting under CFL pressure.

    ``force_level`` drives every coupled family member through the same
    substream layout so their Brownian paths stay pathwise identical.
    ``draws``, when given, is shared by paths on the same ``noise`` stream
    and step: an increment found in it under ``(step, level, slot)`` is
    used as drawn, and one drawn here is stored there.
    ``noise_ledger=False`` steps without the three noise sums of the
    ledger, for a driver that never reads them: the same state, bit for
    bit, at fewer transforms (no grad n for the director-noise terms).
    The returned ledger then holds NaN in those sums, so a balance
    residual folded from it reads NaN, never a number missing its noise
    terms; ``n_substeps`` and ``level_max`` are counted either way.
    """
    if noise_ledger:
        ledger = sums = StepLedger()
    else:
        ledger, sums = StepLedger(u_dw=math.nan, grad_cross_deta=math.nan,
                                  cross_sq_dt=math.nan), None
    draws = {} if draws is None else draws
    new = _advance(state, cfg.dt, 0, 0, cfg, gl, noise, ledger, sums, force_level, draws,
                   state.step + 1)
    return new, ledger


def _advance(state, dt, level, slot, cfg, gl, noise, ledger, sums, force_level, draws,
             step_out):
    """The state ``dt`` after ``state``, numbered ``step_out``: a substep
    keeps the step number its draws are keyed by, the last one advances it.
    ``ledger`` counts the substeps; ``sums``, the same ledger or None,
    takes the noise sums."""
    if force_level is not None:
        split = level < force_level
    else:
        split = dt > _cfl_limit(state, cfg)
    if split:
        if level >= cfg.max_halvings:
            raise CflError(
                f"CFL bound still violated after {cfg.max_halvings} halvings at t={state.t:.6g}"
            )
        mid = _advance(state, dt / 2, level + 1, 2 * slot, cfg, gl, noise, ledger, sums,
                       force_level, draws, state.step)
        return _advance(mid, dt / 2, level + 1, 2 * slot + 1, cfg, gl, noise, ledger, sums,
                        force_level, draws, step_out)

    key = (state.step, level, slot)
    inc = draws.get(key)
    if inc is None:
        inc = draws[key] = sample_increment(noise, dt, state.step, level=level, slot=slot)
    ledger.n_substeps += 1
    ledger.level_max = max(ledger.level_max, level)
    return _composite(state, dt, inc, gl, noise, sums, step_out)


def _director_noise(grid, n_phys, noise, inc, dt, sums):
    """Rotate ``n_phys``, add the director-noise ledger terms at the
    unrotated director to ``sums`` (None: no ledger), and return the
    spectrum of the rotated one.

    The rotation reads neither ledger term, so it goes first, and the
    unrotated and rotated directors go forward as one stack.  Only the
    directions i with a nonzero d_i h (``noise.h_dirs``, a contiguous
    range) enter the sums: the terms of the others are exact zeros, so
    leaving them out keeps the sums' bits, and a constant h, like a step
    without the ledger, takes no ledger transform at all: only the rotated
    director goes forward.  A function of its own so that grad n and
    n x grad h are freed before the exchange stage allocates its own work
    arrays; the caller copies the rotated spectrum out and drops the
    ledger's half.
    """
    dirs = noise.h_dirs if sums is not None else ()
    stack = np.empty((6 if dirs else 3, *n_phys.shape[1:]))
    rotate_phys(n_phys, noise.h_unit, noise.h_mag_values, inc.d_eta, out=stack[-3:],
                h_index=noise.h_mag_index)
    if not dirs:
        return grid.to_spec(stack)
    stack[:3] = n_phys
    spec = grid.to_spec(stack)
    grad_n = grid.to_phys(grid.grad_c[dirs[0]:dirs[-1] + 1] * spec[:3], in_place=True)
    cross = np.empty_like(grad_n)
    for j, i in enumerate(dirs):
        cross3(n_phys, noise.h_grad[i], out=cross[j])
    sums.grad_cross_deta += grid.integrate((grad_n * cross).sum(axis=(0, 1))) * inc.d_eta
    sums.cross_sq_dt += grid.integrate((cross * cross).sum(axis=(0, 1))) * dt
    return spec[3:]


def _composite(state, dt, inc, gl, noise, sums, step_out):
    grid = state.grid
    half = dt / 2
    n_phys = grid.to_phys(diffuse_spec(grid, state.n_spec, half), in_place=True)
    gl_reaction_phys(n_phys, half, gl.epsilon, out=n_phys)
    if noise.h is not None:
        n_spec = _director_noise(grid, n_phys, noise, inc, dt, sums)
    else:
        n_spec = grid.to_spec(n_phys)
    del n_phys  # the exchange stage below is the step's memory peak
    # its input is one (5, N, N/2+1) stack of u then n, built once the
    # director-noise stage has dropped its work arrays
    spec = np.empty((5, *grid.spec_shape), np.complex128)
    spec[2:] = n_spec
    del n_spec
    diffuse_spec(grid, state.u_spec, half, out=spec[:2])

    spec = midpoint_exchange(grid, spec, dt)
    u_spec = spec[:2]
    if noise.velocity_on:
        if sums is not None:
            # both components' l2_inner_spec in one product, each summed over
            # its own mode axes, so each term keeps the bits of a call of its own
            inner = (grid.herm_weight * (u_spec * inc.dW.conj()).real).sum(axis=(1, 2))
            c = (2.0 * np.pi) ** 2
            sums.u_dw += c * float(inner[0]) + c * float(inner[1])
        u_spec += inc.dW

    # the spectra are the state, one (5, N, N/2+1) stack; their to_phys rides
    # along for the report and the CFL test, so neither transforms it again
    new = np.empty((5, *grid.spec_shape), np.complex128)
    n_phys = grid.to_phys(spec[2:], in_place=True)
    gl_reaction_phys(n_phys, half, gl.epsilon, out=n_phys)
    diffuse_spec(grid, grid.to_spec(n_phys, out=new[2:]), half, out=new[2:])
    diffuse_spec(grid, u_spec, half, out=new[:2])
    return SimState(t=state.t + dt, step=step_out, grid=grid, spec=new,
                    phys=grid.to_phys(new))
