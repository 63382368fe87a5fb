"""Property tests: the checkpoint and config round trips over random inputs,
the invariants a long noisy run keeps on its spectral state, and the
complex spectral tables against the expressions they replaced.

The examples are derandomized, so every run of the suite draws the same
ones, and few, so the suite's time barely moves.
"""

import math
import os
import struct
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nsgl.grid import SpectralGrid, leray_project_spec, random_band_limited  # noqa: E402
from nsgl.diagnostics import RunTrace  # noqa: E402
from nsgl.io_cli import (  # noqa: E402
    _CKPT_TRACE,
    _SCHEMA,
    _conj_symmetry_defect,
    dump_config,
    load_checkpoint,
    load_config,
    save_checkpoint,
)
from nsgl.noise import NoiseModel  # noqa: E402
from nsgl.stepper import GLParams, SimState, StepperConfig, cross3, step  # noqa: E402

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
GRIDS = {n: SpectralGrid(n) for n in (16, 32)}
FINITE = st.floats(allow_nan=False, allow_infinity=False)
STREAM_KEY = st.integers(min_value=0, max_value=2**64 - 1)
# every stored trace number is any finite float; a stopping time may also be
# +inf (not hit yet)
TRACE_NUMBERS = st.fixed_dictionaries({
    name: st.one_of(FINITE, st.just(math.inf)) if name.startswith("t_sigma") else FINITE
    for name in _CKPT_TRACE})


@PROPERTY
@given(n=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2**32 - 1),
       band=st.floats(0.1, 1.0), u_amp=st.floats(0.0, 10.0), n_amp=st.floats(0.0, 2.0),
       step=st.integers(0, 2**64 - 1), t=FINITE, eps=st.floats(1e-3, 1e3),
       noise_seed=STREAM_KEY, path_id=STREAM_KEY, numbers=TRACE_NUMBERS,
       cfg_hash=st.binary(min_size=32, max_size=32))
def test_checkpoint_save_then_load_is_bitwise(n, seed, band, u_amp, n_amp, step, t, eps,
                                              noise_seed, path_id, numbers, cfg_hash):
    """Any band-limited, solenoidal, Hermitian spectral state, any stored
    trace numbers and any config hash load back bit for bit, and saving
    what was loaded writes the same bytes."""
    grid = GRIDS[n]
    rng = np.random.default_rng(seed)
    k_max = max(1, int(band * n / 3))
    u = random_band_limited(grid, 2, k_max, rng, u_amp)
    u_spec = leray_project_spec(grid, grid.dealias(grid.to_spec(u)))
    n_spec = grid.to_spec(random_band_limited(grid, 3, n // 2, rng, n_amp))
    spec = np.concatenate([u_spec, n_spec])
    state = SimState(t=t, step=step, grid=grid, spec=spec, phys=grid.to_phys(spec))
    gl = GLParams(epsilon=eps)
    noise = NoiseModel(grid, seed=noise_seed, path_id=path_id, mode_cutoff=4)
    trace = RunTrace(**numbers)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        save_checkpoint(first, state, trace, gl, noise, cfg_hash)
        loaded, loaded_trace = load_checkpoint(first, grid, gl, noise, cfg_hash)
        save_checkpoint(second, loaded, loaded_trace, gl, noise, cfg_hash)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    for name, value in numbers.items():
        assert struct.pack("<d", getattr(loaded_trace, name)) == struct.pack("<d", value)
    assert loaded_trace.last is None and loaded_trace.delta is None
    assert np.array_equal(loaded.u_spec, u_spec)
    assert np.array_equal(loaded.n_spec, n_spec)
    assert (loaded.t, loaded.step) == (t, step)


def test_long_noisy_run_keeps_the_spectral_velocity_valid():
    """The velocity spectrum is never rebuilt from its physical array, so
    nothing resets its non-Hermitian part, its content outside the 2/3 band
    or its divergence: over 400 steps at N = 16 with both noises on, each
    stays at roundoff, as the checkpoint loader requires (1e-12, 1e-12 and
    1e-10).  The director's spectrum is rebuilt every step; its Hermitian
    defect is checked too."""
    grid = GRIDS[16]
    x1, x2 = grid.meshgrid()
    u_spec = leray_project_spec(grid, grid.to_spec(0.3 * np.stack([np.sin(x2), np.sin(x1)])))
    n_phys = np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)])
    state = SimState(t=0.0, step=0, grid=grid,
                     spec=np.concatenate([u_spec, grid.to_spec(n_phys)]),
                     phys=np.concatenate([grid.to_phys(u_spec), n_phys]))
    noise = NoiseModel(grid, seed=17, mode_cutoff=5, h=np.cos(x1) * np.ones((3, 1, 1)))
    cfg, gl = StepperConfig(dt=5e-3, t_end=2.0), GLParams(epsilon=0.3)
    worst = {"u_herm": 0.0, "n_herm": 0.0, "band": 0.0, "div": 0.0}
    for _ in range(cfg.n_steps):
        state, _ = step(state, cfg, gl, noise)
        mag = np.abs(state.u_spec)
        worst["u_herm"] = max(worst["u_herm"], _conj_symmetry_defect(state.u_spec))
        worst["n_herm"] = max(worst["n_herm"], _conj_symmetry_defect(state.n_spec))
        worst["band"] = max(worst["band"],
                            float(np.max(mag[:, ~grid.dealias_mask]) / np.max(mag)))
        worst["div"] = max(worst["div"], grid.divergence_defect(state.u_spec))
    assert state.step == 400
    assert worst["u_herm"] <= 1e-15 and worst["n_herm"] <= 1e-15, worst
    assert worst["band"] == 0.0, worst
    assert worst["div"] <= 1e-14, worst


def _half_spectrum(rng, grid, scale, zero_share):
    """(3, N, N/2+1) complex128 with parts of size ``scale``, the zero mode
    included, and about ``zero_share`` of the real and imaginary parts set
    to +0.0 or -0.0, so signed zeros meet every table entry."""
    parts = scale * rng.standard_normal((2, 3, *grid.spec_shape))
    zeros = rng.random(parts.shape) < zero_share
    parts[zeros] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(zeros)))
    return parts[0] + 1j * parts[1]


@PROPERTY
@given(n=st.sampled_from(sorted(GRIDS)), seed=st.integers(0, 2**32 - 1),
       scale_exp=st.integers(-300, 300), zero_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]))
def test_complex_tables_keep_the_bits(n, seed, scale_exp, zero_share):
    """``dealias``, ``laplacian``, ``leray_project_spec`` and ``cross3``
    equal the expressions they replaced: the bool-mask product, -k2 * spec
    * diff_mask, the float-table projection and the ``np.stack`` cross
    product.  All but the Laplacian keep every bit; the Laplacian folds two
    factors into one table, so it may differ in the sign of a zero."""
    grid = GRIDS[n]
    rng = np.random.default_rng(seed)
    spec = _half_spectrum(rng, grid, 10.0 ** scale_exp, zero_share)

    assert grid.dealias(spec).tobytes() == (spec * grid.dealias_mask).tobytes()
    assert np.array_equal(grid.laplacian(spec), -grid.k2 * spec * grid.diff_mask)

    u = spec[:2]
    k2_safe = np.where(grid.k2 == 0.0, 1.0, grid.k2)
    kdotu = grid.kx * u[0] + grid.ky * u[1]
    old = np.stack([u[0] - grid.kx * kdotu / k2_safe,
                    u[1] - grid.ky * kdotu / k2_safe])
    old[:, 0, 0] = 0.0
    assert leray_project_spec(grid, u).tobytes() == old.tobytes()

    a, b = (grid.to_phys(s) for s in (spec, _half_spectrum(rng, grid, 1.0, zero_share)))
    stacked = np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                        a[0] * b[1] - a[1] * b[0]])
    assert cross3(a, b).tobytes() == stacked.tobytes()


# text the INI echo keeps as it is: no comment prefixes, no line breaks, no
# surrounding blanks (configparser strips those)
_TEXT = st.text(alphabet="abcXYZ019_.,:/- ", max_size=12).map(str.strip)
_VALUES = {"int": st.integers(-2**70, 2**70), "float": FINITE, "bool": st.booleans(),
           "str": _TEXT, "auto_float": st.one_of(st.just("auto"), FINITE),
           "float_list": st.lists(FINITE, max_size=5).map(tuple)}


@st.composite
def _configs(draw):
    return {sec: {key: draw(_VALUES[kind]) for key, (kind, _) in keys.items()}
            for sec, keys in _SCHEMA.items()}


@PROPERTY
@given(cfg=_configs())
def test_config_dump_then_load_round_trips(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_config(cfg))
        echoed = load_config(path)
    assert echoed == cfg
    assert dump_config(echoed) == dump_config(cfg)
