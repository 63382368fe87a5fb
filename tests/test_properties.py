"""Property tests: the checkpoint and config round trips over random inputs.

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

from nsgl.grid import DirectorField, SpectralGrid, VelocityField, random_band_limited  # noqa: E402
from nsgl.diagnostics import RunTrace  # noqa: E402
from nsgl.io_cli import (  # noqa: E402
    _CKPT_TRACE,
    _SCHEMA,
    SimConfig,
    dump_config,
    load_checkpoint,
    load_config,
    save_checkpoint,
)
from nsgl.noise import NoiseModel  # noqa: E402
from nsgl.operators import GLParams, leray_project_spec  # noqa: E402
from nsgl.stepper import SimState  # noqa: E402

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
       noise_seed=STREAM_KEY, path_id=STREAM_KEY, numbers=TRACE_NUMBERS)
def test_checkpoint_save_then_load_is_bitwise(n, seed, band, u_amp, n_amp, step, t, eps,
                                              noise_seed, path_id, numbers):
    """Any band-limited solenoidal state and any stored trace numbers load
    back bit for bit, and saving what was loaded writes the same bytes."""
    grid = GRIDS[n]
    rng = np.random.default_rng(seed)
    k_max = max(1, int(band * n / 3))
    u = random_band_limited(grid, 2, k_max, rng, u_amp)
    u_spec = leray_project_spec(grid, grid.dealias(grid.to_spec(u)))
    state = SimState(t=t, step=step, u=VelocityField(grid, phys=grid.to_phys(u_spec)),
                     n=DirectorField(grid, phys=random_band_limited(grid, 3, n // 2, rng, n_amp)))
    gl = GLParams(epsilon=eps)
    noise = NoiseModel(grid, seed=noise_seed, path_id=path_id, mode_cutoff=4)
    trace = RunTrace(**numbers)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.ckpt"), os.path.join(tmp, "b.ckpt")
        save_checkpoint(first, state, trace, gl, noise)
        loaded, loaded_trace = load_checkpoint(first, grid, gl, noise)
        save_checkpoint(second, loaded, loaded_trace, gl, noise)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()
    for name, value in numbers.items():
        assert struct.pack("<d", getattr(loaded_trace, name)) == struct.pack("<d", value)
    assert loaded_trace.last is None and loaded_trace.delta is None
    assert np.array_equal(loaded.u.phys, state.u.phys)
    assert np.array_equal(loaded.n.phys, state.n.phys)
    assert (loaded.t, loaded.step) == (t, step)


# text the INI echo keeps as it is: no comment prefixes, no line breaks, no
# surrounding blanks (configparser strips those)
_TEXT = st.text(alphabet="abcXYZ019_.,:/- ", max_size=12).map(str.strip)
_VALUES = {"int": st.integers(-2**70, 2**70), "float": FINITE, "bool": st.booleans(),
           "str": _TEXT}


@st.composite
def _configs(draw):
    return SimConfig(values={sec: {key: draw(_VALUES[kind]) for key, (kind, _) in keys.items()}
                             for sec, keys in _SCHEMA.items()})


@PROPERTY
@given(cfg=_configs())
def test_config_dump_then_load_round_trips(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_config(cfg))
        echoed = load_config(path)
    assert echoed.values == cfg.values
    assert dump_config(echoed) == dump_config(cfg)
