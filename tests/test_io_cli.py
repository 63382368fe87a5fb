"""Config parsing, checkpoint format, NDJSON framing, and CLI behavior.

The CLI tests drive ``main(argv)`` in-process so exit codes and streams are
asserted directly; nothing here shells out.
"""

import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from nsgl.checks import run_identity_checks
from nsgl.diagnostics import EnergyReport, RunTrace
from nsgl.io_cli import (
    REPORT_KEYS,
    ConfigError,
    build_components,
    config_hash,
    dump_config,
    format_report,
    load_checkpoint,
    load_config,
    main,
    save_checkpoint,
)
from nsgl.experiments import run_path
from nsgl.noise import NoiseModel
from nsgl.stepper import GLParams, SimState, StepperConfig


def write_config(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return str(p)


SMALL_RUN = """
[grid]
n_modes = 16
[stepper]
dt = 5e-3
t_end = 0.025
[gl]
epsilon = 0.3
[noise]
seed = 9
mode_cutoff = 4
[initial]
u0 = shear
u0_amplitude = 0.2
n0 = circle_x1
"""


# -- config schema ---------------------------------------------------------------


def test_defaults_fill_every_schema_key(tmp_path):
    cfg = load_config(write_config(tmp_path, "[grid]\nn_modes = 32\n"))
    assert cfg["grid"]["n_modes"] == 32
    assert cfg["stepper"]["dt"] == 1e-3
    assert cfg["noise"]["velocity_on"] is True
    assert cfg["stops"]["delta"] == "auto"
    assert cfg["convergence"]["alpha"] == 1.0


def test_dump_load_round_trip_is_idempotent(tmp_path):
    cfg = load_config(write_config(tmp_path, SMALL_RUN))
    echoed = dump_config(cfg)
    cfg2 = load_config(write_config(tmp_path, echoed, name="echo.ini"))
    assert dump_config(cfg2) == echoed
    assert echoed.startswith("[grid]\nn_modes = 16\n")
    assert "velocity_on = true" in echoed
    assert "dt = 0.005" in echoed


def test_unknown_section_and_key_are_errors(tmp_path):
    with pytest.raises(ConfigError, match=r"unknown config section"):
        load_config(write_config(tmp_path, "[typo]\nx = 1\n"))
    with pytest.raises(ConfigError, match=r"unknown config key stepper\.dtt"):
        load_config(write_config(tmp_path, "[stepper]\ndtt = 1e-3\n"))


def test_type_errors_name_section_and_key(tmp_path):
    with pytest.raises(ConfigError, match=r"stepper\.dt"):
        load_config(write_config(tmp_path, "[stepper]\ndt = fast\n"))
    with pytest.raises(ConfigError, match=r"noise\.velocity_on"):
        load_config(write_config(tmp_path, "[noise]\nvelocity_on = maybe\n"))
    with pytest.raises(ConfigError, match=r"grid\.n_modes"):
        load_config(write_config(tmp_path, "[grid]\nn_modes = 16.5\n"))


def test_inline_comments_are_stripped(tmp_path):
    cfg = load_config(write_config(
        tmp_path, "[gl]\nepsilon = 0.25  # quarter\n[noise]\nseed = 3 ; rng\n"))
    assert cfg["gl"]["epsilon"] == 0.25
    assert cfg["noise"]["seed"] == 3


@pytest.mark.parametrize("body, line, reason", [
    ("x = 1\n[grid]\nn_modes = 16\n", 1, "expected a [section] header"),
    ("[grid]\nn_modes = 16\n[gl]\nepsilon = 0.3\n[grid]\n", 5,
     "section [grid] already appeared"),
    ("[grid]\nn_modes = 16\nn_modes = 32\n", 3, "key grid.n_modes already appeared"),
    ("[grid]\nn_modes = 16\nnot a key\nnor this\n", 3, "expected key = value"),
], ids=["no-section-header", "duplicate-section", "duplicate-key", "not-a-key"])
def test_cli_config_syntax_error_is_one_line(tmp_path, capsys, body, line, reason):
    """configparser's own message spans lines and echoes the offending one;
    ``run`` prints one line naming the file, the line and why, and exits 1."""
    path = write_config(tmp_path, body)
    assert main(["run", "-c", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {path}, line {line}: {reason}\n"


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/run.ini")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(b"[grid]\nn_modes = 16\xff\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(path))
    assert main(["dump-config", "-c", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: cannot read config ") and err.count("\n") == 1


@pytest.mark.parametrize("body, pattern", [
    ("[grid]\nn_modes = 10\n", r"grid\.n_modes"),
    ("[stepper]\nmax_halvings = -1\n", "max_halvings"),
    ("[gl]\nepsilon = 0\n", "epsilon"),
    ("[noise]\nseed = -2\n", r"noise\.seed"),
    ("[noise]\ngamma = 2.0\n", "gamma"),
    ("[initial]\nseed = -1\n", r"initial\.seed"),
    ("[stops]\ndelta = -0.5\n", r"stops\.delta"),
    ("[stops]\nradius = 3.0\n", r"stops\.radius"),
    ("[output]\nreport_every = 0\n", "report_every"),
    ("[output]\ncheckpoint_every = -1\n", "checkpoint_every"),
    ("[convergence]\nalpha = 2.0\n", "alpha"),
    ("[convergence]\nn_paths = 0\n", "n_paths"),
    ("[convergence]\neps_family = 0.2, 0.2\n", "eps_family"),
    ("[h_field]\nprofile = vortex\n", "profile"),
    ("[initial]\nu0 = swirl\n", r"initial\.u0"),
    ("[initial]\nn0 = hedgehog\n", r"initial\.n0"),
])
def test_semantic_validation_rejects(tmp_path, body, pattern):
    cfg = load_config(write_config(tmp_path, body))
    with pytest.raises(ConfigError, match=pattern):
        build_components(cfg)


def test_cli_refuses_the_removed_scheme_key(tmp_path, capsys):
    """Every step is a Strang step: a config that still names a scheme is
    refused, on a fresh run and on a resume alike."""
    ck = tmp_path / "mid.ckpt"
    body = SMALL_RUN + f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    capsys.readouterr()
    for scheme in ("strang", "lie"):
        named = write_config(tmp_path, body.replace("[gl]", f"scheme = {scheme}\n[gl]"),
                             f"{scheme}.ini")
        for extra in ([], ["--resume", str(ck)]):
            assert main(["run", "-c", named, *extra]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "config error: unknown config key stepper.scheme\n"


def test_cli_run_rejects_seed_beyond_stream_key(tmp_path, capsys):
    body = SMALL_RUN.replace("seed = 9", f"seed = {2**64}")
    assert main(["run", "-c", write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "noise.seed" in err


def test_cli_run_rejects_nan_t_end(tmp_path, capsys):
    body = SMALL_RUN.replace("t_end = 0.025", "t_end = nan")
    assert main(["run", "-c", write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "stepper.t_end" in err


@pytest.mark.parametrize("t_end", ["0.0016", "0.0004"])
def test_cli_run_refuses_a_t_end_off_the_step_grid(tmp_path, capsys, t_end):
    """A run ends at round(t_end / dt) * dt, so at dt = 1e-3 a t_end of
    0.0016 would run to 0.002 and 0.0004 would take no step; both are
    refused with one config error line, before any output."""
    body = SMALL_RUN.replace("dt = 5e-3", "dt = 1e-3").replace("t_end = 0.025",
                                                                f"t_end = {t_end}")
    assert main(["run", "-c", write_config(tmp_path, body)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("config error: stepper.t_end must be")
    assert f"t_end = {t_end}" in err


@pytest.mark.parametrize("t_end, n_steps", [("0.043", 43), ("0.25", 250)])
def test_cli_accepts_a_t_end_on_the_step_grid_up_to_rounding(tmp_path, capsys, t_end,
                                                             n_steps):
    """0.043 / 1e-3 is 42.99999999999999 in floating point, within the
    resume clock's tolerance of 43 steps, so it is accepted like the exact
    0.25 / 1e-3."""
    assert (0.043 / 1e-3 != 43.0) and (0.25 / 1e-3 == 250.0)
    body = SMALL_RUN.replace("dt = 5e-3", "dt = 1e-3").replace("t_end = 0.025",
                                                                f"t_end = {t_end}")
    path = write_config(tmp_path, body)
    assert main(["dump-config", "-c", path]) == 0
    assert f"t_end = {t_end}" in capsys.readouterr().out
    assert build_components(load_config(path)).stepper.n_steps == n_steps


@pytest.mark.parametrize("command", ["run", "converge", "ensemble", "dump-config"])
def test_cli_refuses_a_radius_below_the_grid_spacing(tmp_path, capsys, command):
    """The covering lattice grows as R^-2, so a radius below dx = 2 pi / N is
    refused before the covering allocates, by every config command: each
    refusal traces under 4 MB, where the arcs of N = 64 at R = 0.01 alone
    would take 445^2 * 64 * 3 int64.  R = dx itself (pi/8 at N = 16) is
    admitted."""
    for n, radius in ((16, 1e-3), (64, 0.01), (16, math.nextafter(math.pi / 8, 0.0))):
        body = f"[grid]\nn_modes = {n}\n[stops]\nradius = {radius!r}\n"
        tracemalloc.start()
        try:
            assert main([command, "-c", write_config(tmp_path, body)]) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: stops.radius must be in")
    body = f"[grid]\nn_modes = 16\n[stops]\nradius = {math.pi / 8!r}\n"
    assert main(["dump-config", "-c", write_config(tmp_path, body)]) == 0


def test_nan_stop_delta_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match=r"stops\.delta"):
        load_config(write_config(tmp_path, "[stops]\ndelta = nan\n"))


def test_negative_mode_cutoff_is_config_error(tmp_path):
    cfg = load_config(write_config(tmp_path, "[noise]\nmode_cutoff = -3\n"))
    with pytest.raises(ConfigError, match=r"noise\.mode_cutoff"):
        build_components(cfg)


def test_cli_ensemble_rejects_path_ids_beyond_stream_key(tmp_path, capsys):
    body = SMALL_RUN.replace("mode_cutoff = 4", f"mode_cutoff = 4\npath_id = {2**64 - 1}") \
        + "[ensemble]\nn_paths = 2\n"
    assert main(["ensemble", "-c", write_config(tmp_path, body)]) == 1
    assert "noise.path_id + ensemble.n_paths" in capsys.readouterr().err


def test_parse_eps_family(tmp_path):
    """``load_config`` parses the list into a tuple of finite floats and
    ``build_components`` checks it: nonempty, > 0 with a nonzero square,
    distinct."""
    def built(text):
        cfg = load_config(write_config(
            tmp_path, f"[grid]\nn_modes = 16\n[convergence]\neps_family = {text}\n"))
        build_components(cfg)
        return cfg["convergence"]["eps_family"]

    assert built("0.4, 0.2 ,0.1") == (0.4, 0.2, 0.1)
    assert built("1e-160") == (1e-160,)
    for bad in ("", "0.4, zero", "0.4, -0.2", "0.1, 0.1", "0.4, nan", "inf", "1e-300"):
        with pytest.raises(ConfigError, match=r"^convergence\.eps_family: "):
            built(bad)


@pytest.mark.parametrize("family", ["nan, 0.1", "inf, 0.1"])
def test_cli_refuses_a_non_finite_eps_family(tmp_path, capsys, family):
    body = SMALL_RUN + f"[convergence]\neps_family = {family}\nn_paths = 1\n"
    assert main(["converge", "-c", write_config(tmp_path, body)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: convergence.eps_family")


@pytest.mark.parametrize("command, key", [("run", "epsilon"), ("ensemble", "epsilon"),
                                          ("converge", "epsilon"), ("converge", "eps_family")])
def test_cli_refuses_an_epsilon_whose_square_underflows(tmp_path, capsys, command, key):
    """An epsilon whose square is 0 (1e-300) divided the report by zero: it
    is a config error, one line and exit 1.  1e-160, whose square is
    subnormal, is no config error and runs; where the run reads it, the
    first roundoff defect of |n| makes the report's D = |lap n + f(n)|^2
    overflow, so it ends as a numerical failure (exit 2).  ``converge``
    reads ``eps_family``, not ``gl.epsilon``."""
    def body(eps):
        text = SMALL_RUN.replace("n0 = circle_x1", "n0 = constant_e3") \
            + "[ensemble]\nn_paths = 1\n[convergence]\nn_paths = 1\n"
        if key == "epsilon":
            return text.replace("epsilon = 0.3", f"epsilon = {eps}")
        return text + f"eps_family = {eps}, 0.4\n"

    assert main([command, "-c", write_config(tmp_path, body("1e-300"))]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: " + ("gl.epsilon" if key == "epsilon"
                                              else "convergence.eps_family"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the report overflows
        code = main([command, "-c", write_config(tmp_path, body("1e-160"))])
    err = capsys.readouterr().err
    assert "config error" not in err
    if (command, key) == ("converge", "epsilon"):
        assert code == 0
    else:
        assert code == 2 and err.startswith("numerical failure: ")


def test_cli_ends_a_run_whose_dissipation_overflows(tmp_path, capsys):
    """At epsilon = 1e-160 the report's D overflows after the first step.
    ``ensemble`` used to exit 0 printing E[int D] = inf and an infinite
    balance; a report with an infinite D now ends the run as a numerical
    failure: exit 2, nothing on stdout, one stderr line, which names D and
    says that the state is finite."""
    body = ("[grid]\nn_modes = 16\n[stepper]\nt_end = 0.02\n[gl]\nepsilon = 1e-160\n"
            "[ensemble]\nn_paths = 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the report overflows
        code = main(["ensemble", "-c", write_config(tmp_path, body)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("numerical failure: report enstrophy_D = inf at t=") \
        and err.endswith(", from a finite state\n") and err.count("\n") == 1


# -- presets ----------------------------------------------------------------------


def norm(phys):
    """Pointwise Euclidean magnitude of a (C, N, N) stack."""
    return np.sqrt(np.sum(phys**2, axis=0))


def test_initial_presets_build_consistent_state(tmp_path):
    bundle = build_components(load_config(write_config(tmp_path, SMALL_RUN)))
    st = bundle.state0
    x1, x2 = bundle.state0.grid.meshgrid()
    assert np.allclose(st.u_phys[0], 0.2 * np.sin(x2), atol=1e-12)
    assert np.allclose(st.u_phys[1], 0.0, atol=1e-13)
    assert bundle.state0.grid.divergence_defect(st.u_spec) < 1e-12
    assert np.allclose(norm(st.n_phys), 1.0, atol=1e-12)
    # constant h with magnitude m means each component equals m
    assert bundle.noise.h.shape == (3, 16, 16)
    assert np.allclose(bundle.noise.h, 1.0)


def test_taylor_green_and_random_band_are_divergence_free(tmp_path):
    for preset in ("taylor_green", "random_band"):
        body = f"[grid]\nn_modes = 16\n[initial]\nu0 = {preset}\nseed = 5\n"
        bundle = build_components(load_config(write_config(tmp_path, body)))
        assert bundle.state0.grid.divergence_defect(bundle.state0.u_spec) < 1e-12
        if preset == "random_band":
            assert float(np.max(np.abs(bundle.state0.u_phys))) > 0.0


def test_random_director_presets(tmp_path):
    base = "[grid]\nn_modes = 16\n[initial]\nn0 = {n0}\nnormalize_n0 = {norm}\nseed = 5\n"
    unit = build_components(load_config(write_config(
        tmp_path, base.format(n0="random_unit", norm="false")))).state0
    assert np.allclose(norm(unit.n_phys), 1.0, atol=1e-12)  # forced for this preset
    raw = build_components(load_config(write_config(
        tmp_path, base.format(n0="random_band", norm="false")))).state0
    assert abs(float(np.max(norm(raw.n_phys))) - 1.0) > 1e-3


def test_file_preset_round_trip_and_shape_check(tmp_path):
    rng = np.random.default_rng(0)
    n0 = rng.standard_normal((3, 16, 16))
    n0 /= np.sqrt(np.sum(n0 * n0, axis=0))
    path = tmp_path / "n0.npy"
    np.save(path, n0)
    body = f"[grid]\nn_modes = 16\n[initial]\nn0 = file:{path}\nnormalize_n0 = false\n"
    bundle = build_components(load_config(write_config(tmp_path, body)))
    assert np.array_equal(bundle.state0.n_phys, n0)
    bad = tmp_path / "bad.npy"
    np.save(bad, np.zeros((3, 8, 8)))
    body = f"[grid]\nn_modes = 16\n[initial]\nn0 = file:{bad}\n"
    with pytest.raises(ConfigError, match="shape"):
        build_components(load_config(write_config(tmp_path, body)))


@pytest.mark.parametrize("key, n_comp", [("u0", 2), ("n0", 3)])
@pytest.mark.parametrize("kind, pattern", [
    ("text", "cannot read field file"),
    ("empty", "cannot read field file"),
    ("string-array", "does not hold a real numeric array"),
    ("complex-array", "does not hold a real numeric array"),
    ("nan-entry", "has non-finite entries"),
])
def test_malformed_field_file_is_config_error(tmp_path, capsys, key, n_comp, kind, pattern):
    path = tmp_path / "field.npy"
    if kind == "text":
        path.write_text("not an array\n", encoding="utf-8")
    elif kind == "empty":
        path.write_bytes(b"")
    elif kind == "string-array":
        np.save(path, np.full((n_comp, 16, 16), "1.0"))
    elif kind == "complex-array":
        np.save(path, np.full((n_comp, 16, 16), 1.0 + 2.0j))
    else:
        values = np.ones((n_comp, 16, 16))
        values[-1, 2, 3] = np.nan
        np.save(path, values)
    body = f"[grid]\nn_modes = 16\n[initial]\n{key} = file:{path}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and pattern in err and err.count("\n") == 1


def test_normalization_guard_rejects_vanishing_director(tmp_path):
    n0 = np.zeros((3, 16, 16))
    n0[2] = 1.0
    n0[:, 0, 0] = 0.0  # one dead point
    path = tmp_path / "dead.npy"
    np.save(path, n0)
    body = f"[grid]\nn_modes = 16\n[initial]\nn0 = file:{path}\n"
    with pytest.raises(ConfigError, match="cannot normalize"):
        build_components(load_config(write_config(tmp_path, body)))


def test_director_on_false_is_the_model_without_h(tmp_path, capsys):
    """``noise.director_on = false`` builds the noise model with ``h = None``,
    the one switch of the director noise: a CLI ``run`` writes the rows of
    the library run on a model given no h, and other rows with the switch
    on."""
    rows = {}
    for on in ("true", "false"):
        body = SMALL_RUN.replace("mode_cutoff = 4\n", f"mode_cutoff = 4\ndirector_on = {on}\n") \
            + "[h_field]\nprofile = single_mode\n"
        path = write_config(tmp_path, body, f"{on}.ini")
        assert main(["run", "-c", path]) == 0
        rows[on] = capsys.readouterr().out
        bundle = build_components(load_config(path))
        assert (bundle.noise.h is None) == (on == "false")
    assert rows["true"] != rows["false"]
    lib = []
    run_path(bundle.state0, bundle.stepper, bundle.gl,
             NoiseModel(bundle.state0.grid, seed=9, mode_cutoff=4), covering=bundle.covering,
             on_report=lambda st, tr: lib.append(format_report(tr.last) + "\n"))
    assert rows["false"] == "".join(lib)


def test_single_mode_axis_profile(tmp_path):
    body = "[grid]\nn_modes = 16\n[h_field]\nprofile = single_mode\nmagnitude = 2.0\n"
    bundle = build_components(load_config(write_config(tmp_path, body)))
    x1, _ = bundle.state0.grid.meshgrid()
    assert np.allclose(bundle.noise.h[0], 2.0 * np.cos(x1), atol=1e-12)
    assert np.allclose(bundle.noise.h[1], bundle.noise.h[0])


# -- checkpoints -------------------------------------------------------------------


def small_state(grid16, seed=3):
    rng = np.random.default_rng(seed)
    from nsgl.grid import leray_project_spec, random_band_limited

    u = random_band_limited(grid16, 2, 4, rng, 0.3)
    u_spec = grid16.dealias(leray_project_spec(grid16, grid16.to_spec(u)))
    n = random_band_limited(grid16, 3, 4, rng, 0.2)
    n[2] += 1.0
    return SimState(t=0.375, step=12, grid=grid16,
                    spec=np.concatenate([u_spec, grid16.to_spec(n)]),
                    phys=np.concatenate([grid16.to_phys(u_spec), n]))


# stands for the config hash of the run that writes a library-level checkpoint
CFG_HASH = hashlib.sha256(b"test config").digest()


def test_checkpoint_round_trip_is_bitwise(grid16, tmp_path):
    st = small_state(grid16)
    gl, noise = GLParams(epsilon=0.25), NoiseModel(grid16, seed=21, path_id=4, mode_cutoff=4)
    path = str(tmp_path / "state.ckpt")
    trace = RunTrace(t0=0.125, e0=40.25, int_d=1.5, sum_u_dw=-0.25, sum_grad_cross=0.0625,
                     sum_cross_sq=0.5, sup_e=41.0, max_n=1.0, ls_l4=1.75, ls_lap=3.5,
                     ls_grad=7.0, ls_sup=2.25, t_sigma1=0.25)
    save_checkpoint(path, st, trace, gl, noise, CFG_HASH)
    loaded, loaded_trace = load_checkpoint(path, grid16, gl, noise, CFG_HASH)
    assert isinstance(loaded, SimState)
    # the half spectra are the state; the physical arrays are their to_phys
    assert loaded.spec.tobytes() == st.spec.tobytes()
    assert loaded.phys.tobytes() == grid16.to_phys(st.spec).tobytes()
    assert loaded.t == 0.375 and loaded.step == 12
    # the stored numbers come back; the last report and delta are the run's
    assert loaded_trace == RunTrace(**{**vars(trace), "last": None})
    assert loaded_trace.t_sigma2 == math.inf


def test_the_checkpoint_layout_follows_the_run_trace(grid16, tmp_path):
    """Every ``RunTrace`` field but the noise trace, the stop threshold and
    the last report is stored: each takes a distinct value and comes back
    bit for bit.  The version and header size are pinned, so a new trace
    field fails here until the version is bumped."""
    from nsgl.io_cli import _CKPT_HEADER, _CKPT_VERSION

    names = [f.name for f in dataclasses.fields(RunTrace)
             if f.name not in ("trace_q_eff", "delta", "last")]
    values = {name: 0.5 + 0.125 * i for i, name in enumerate(names)}
    gl, noise = GLParams(epsilon=0.25), NoiseModel(grid16, seed=21, mode_cutoff=4)
    path = str(tmp_path / "state.ckpt")
    save_checkpoint(path, small_state(grid16), RunTrace(**values), gl, noise, CFG_HASH)
    _, loaded = load_checkpoint(path, grid16, gl, noise, CFG_HASH)
    for name, value in values.items():
        assert struct.pack("<d", getattr(loaded, name)) == struct.pack("<d", value), name
    assert (_CKPT_VERSION, _CKPT_HEADER.size) == (3, 196)


def test_a_run_without_a_covering_checkpoints_a_finite_trace(grid16, tmp_path):
    """A library ``run_path`` without a covering reports ``grad_n_L4`` as
    NaN; its trace keeps ``ls_l4`` at 0, as it keeps ``ls_sup``, so the
    checkpoint of its last state loads."""
    x1, _ = grid16.meshgrid()
    state = SimState.from_arrays(grid16, np.zeros((2, 16, 16)),
                                 np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)]))
    gl, noise = GLParams(epsilon=0.3), NoiseModel(grid16, seed=5, mode_cutoff=4)
    last = []
    trace = run_path(state, StepperConfig(dt=5e-3, t_end=0.01), gl, noise,
                     on_report=lambda st, tr: last.append(st))
    assert math.isnan(trace.last.grad_n_L4)
    assert trace.ls_l4 == 0.0 and trace.ls_sup == 0.0 and trace.ls_grad > 0.0
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(path, last[-1], trace, gl, noise, CFG_HASH)
    _, loaded = load_checkpoint(path, grid16, gl, noise, CFG_HASH)
    # the checkpoint holds neither the last report nor TrQ, which a resume sets
    assert loaded == dataclasses.replace(trace, last=None, trace_q_eff=0.0)


def write_old_checkpoint(path, state, gl, noise, version):
    """The physical-payload layouts: version 1's header, which version 2
    follows with 14 trace numbers (zero here), then u and n as float64."""
    n = state.grid.n_modes
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQQQdd", b"NSGL", version, n, state.step, noise.seed,
                             noise.path_id, gl.epsilon, state.t))
        if version == 2:
            fh.write(struct.pack("<14d", *[0.0] * 14))
        fh.write(np.ascontiguousarray(state.phys, dtype="<f8").tobytes())


def test_checkpoint_error_cases(grid16, tmp_path):
    st = small_state(grid16)
    gl, noise = GLParams(epsilon=0.25), NoiseModel(grid16, seed=21, path_id=4, mode_cutoff=4)
    path = tmp_path / "state.ckpt"
    save_checkpoint(str(path), st, RunTrace(), gl, noise, CFG_HASH)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ConfigError, match="bad magic"):
        load_checkpoint(str(bad), grid16, gl, noise, CFG_HASH)
    bad.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(ConfigError, match="version"):
        load_checkpoint(str(bad), grid16, gl, noise, CFG_HASH)
    bad.write_bytes(blob[:-16])
    with pytest.raises(ConfigError, match="truncated"):
        load_checkpoint(str(bad), grid16, gl, noise, CFG_HASH)
    bad.write_bytes(blob[:10])
    with pytest.raises(ConfigError, match="too short"):
        load_checkpoint(str(bad), grid16, gl, noise, CFG_HASH)
    with pytest.raises(ConfigError, match="cannot read checkpoint"):
        load_checkpoint(str(tmp_path / "absent.ckpt"), grid16, gl, noise, CFG_HASH)
    from nsgl.grid import SpectralGrid
    with pytest.raises(ConfigError, match="grid mismatch"):
        load_checkpoint(str(path), SpectralGrid(32), gl, noise, CFG_HASH)
    with pytest.raises(ConfigError, match=r"^checkpoint epsilon 0\.25 != config gl\.epsilon 0\.5$"):
        load_checkpoint(str(path), grid16, GLParams(epsilon=0.5), noise, CFG_HASH)
    for other in (NoiseModel(grid16, seed=22, path_id=4, mode_cutoff=4),
                  NoiseModel(grid16, seed=21, path_id=5, mode_cutoff=4)):
        with pytest.raises(ConfigError, match=r"noise identity \(seed, path_id\)"):
            load_checkpoint(str(path), grid16, gl, other, CFG_HASH)
    for version in (1, 2):
        write_old_checkpoint(str(bad), st, gl, noise, version)
        with pytest.raises(ConfigError, match=rf"unsupported checkpoint version {version}$"):
            load_checkpoint(str(bad), grid16, gl, noise, CFG_HASH)
    with pytest.raises(ConfigError, match=r"config hash mismatch"):
        load_checkpoint(str(path), grid16, gl, noise, hashlib.sha256(b"other").digest())
    for name, value in [("int_d", math.nan), ("sup_e", math.inf), ("t_sigma1", -math.inf),
                        ("t_sigma2", math.nan)]:
        save_checkpoint(str(bad), st, RunTrace(**{name: value}), gl, noise, CFG_HASH)
        with pytest.raises(ConfigError, match=r"non-finite value in the run trace$"):
            load_checkpoint(str(bad), grid16, gl, noise, CFG_HASH)


@pytest.mark.parametrize("kind, pattern", [
    ("divergent", r"velocity divergence defect .* exceeds 1e-10$"),
    ("out-of-band", r"velocity content outside the 2/3 band is 1 of its largest"),
    ("nan-payload", r"non-finite value in the state$"),
    ("non-hermitian", r"director spectrum is not Hermitian: conjugate-symmetry defect "
                      r"0\.0005 exceeds 1e-12$"),
])
def test_checkpoint_refuses_what_a_run_cannot_continue(grid16, tmp_path, capsys, kind,
                                                        pattern):
    """A checkpoint no nsgl step writes (a velocity outside the exchange
    drift's precondition, a non-finite value, or a spectrum with a
    non-Hermitian part that to_phys would drop) is refused, by the library
    and by `run --resume` (exit 1, one config error line), never repaired.
    Header, config hash and clock fit the SMALL_RUN config resumed at step 5."""
    x1 = grid16.x1[:, None] + 0.0 * grid16.x2[None, :]
    u = np.stack([np.zeros_like(x1), np.sin(x1)])
    n = np.zeros((3, 16, 16))
    n[2] = 1.0
    if kind == "divergent":  # a gradient part, divergence -sin(x1)
        u[0] = np.cos(x1)
    elif kind == "out-of-band":  # solenoidal, but k1 = 7 > N/3
        u[1] += np.sin(7.0 * x1)
    elif kind == "nan-payload":
        n[0, 3, 4] = np.nan
    n_spec = grid16.to_spec(n)
    if kind == "non-hermitian":  # k1 = 1 on the k2 = 0 column without its k1 = -1 partner
        n_spec[0, 1, 0] += 1e-3
    gl, noise = GLParams(epsilon=0.3), NoiseModel(grid16, seed=9, mode_cutoff=4)
    out_path = tmp_path / "resumed.ndjson"
    body = SMALL_RUN.replace("t_end = 0.025", "t_end = 0.05") + \
        f"[output]\nndjson_path = {out_path}\n"
    cfg_path = write_config(tmp_path, body)
    cfg_hash = config_hash(load_config(cfg_path))
    path = tmp_path / f"{kind}.ckpt"
    spec = np.concatenate([grid16.to_spec(u), n_spec])
    state = SimState(t=0.025, step=5, grid=grid16, spec=spec, phys=grid16.to_phys(spec))
    save_checkpoint(str(path), state, RunTrace(), gl, noise, cfg_hash)
    with pytest.raises(ConfigError, match=pattern):
        load_checkpoint(str(path), grid16, gl, noise, cfg_hash)
    assert main(["run", "-c", cfg_path, "--resume", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"config error: {path}: ") and err.count("\n") == 1
    assert not out_path.exists()


def test_failed_checkpoint_write_keeps_the_previous_one(grid16, tmp_path, monkeypatch):
    """A save that raises after writing part of the file leaves the previous
    checkpoint byte-intact and no temporary file behind."""
    import nsgl.io_cli as io_cli

    noise = NoiseModel(grid16, mode_cutoff=4)
    path = tmp_path / "state.ckpt"
    save_checkpoint(str(path), small_state(grid16), RunTrace(), GLParams(epsilon=0.25), noise,
                    CFG_HASH)
    before = path.read_bytes()

    calls = []

    def fail_on_payload(a, *args, **kwargs):
        calls.append(1)  # the header is written by now
        raise OSError("disk full")

    monkeypatch.setattr(io_cli.np, "ascontiguousarray", fail_on_payload)
    later = small_state(grid16, seed=4)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(str(path), later, RunTrace(), GLParams(epsilon=0.25), noise, CFG_HASH)
    assert len(calls) == 1
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]

    monkeypatch.undo()
    save_checkpoint(str(path), later, RunTrace(), GLParams(epsilon=0.25), noise, CFG_HASH)
    loaded, _ = load_checkpoint(str(path), grid16, GLParams(epsilon=0.25), noise, CFG_HASH)
    assert np.array_equal(loaded.spec, later.spec)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]


# -- NDJSON -----------------------------------------------------------------------


def test_report_keys_cover_the_report_dataclass():
    fields = set(EnergyReport.__dataclass_fields__)
    assert set(REPORT_KEYS) == fields


def test_format_report_golden_line():
    rep = EnergyReport(
        step=3, t=0.125, energy_E=1.5, enstrophy_D=0.25, gl_mass=0.0625,
        lambda1=0.5, lambda2=0.125, eps_defect=2.0, eps_grad_defect=0.0,
        min_abs_n=0.75, max_abs_n=1.0, grad_n_L4=0.5, u_sq=0.25,
        grad_n_sq=1.0, max_abs_u=0.5, div_defect=1e-16,
        local_energy_max=math.nan, local_grad_max=math.nan)
    line = format_report(rep)
    assert line == (
        '{"step": 3, "t": 0.125, "energy_E": 1.5, "enstrophy_D": 0.25, '
        '"gl_mass": 0.0625, "lambda1": 0.5, "lambda2": 0.125, '
        '"eps_defect": 2, "eps_grad_defect": 0, "min_abs_n": 0.75, '
        '"max_abs_n": 1, "grad_n_L4": 0.5, "u_sq": 0.25, "grad_n_sq": 1, '
        '"max_abs_u": 0.5, "div_defect": 9.9999999999999998e-17, '
        '"local_energy_max": null, "local_grad_max": null}')
    parsed = json.loads(line)
    assert list(parsed) == list(REPORT_KEYS)
    assert parsed["div_defect"] == 1e-16  # 17 digits round-trips doubles
    assert parsed["local_energy_max"] is None


# -- identity self-checks -----------------------------------------------------------


def test_identity_checks_pass_on_small_grid():
    results = run_identity_checks(n_modes=32, samples=4, seed=1)
    assert len(results) == 10
    assert all(r.passed for r in results)
    names = [r.name for r in results]
    assert "stress_transport_cancel" in names and "gl_map_vs_ode" in names


def test_identity_checks_evaluate_the_kernels_the_step_runs(monkeypatch):
    """Gate 1 reads ``coupling_drift_spec`` and ``gl_reaction_phys``: an
    exchange drift without the Ericksen stress fails the stress pairing,
    and a reaction that also moves n across itself fails the penalty's
    orthogonality to the rotation noise."""
    import nsgl.checks as checks

    def failed(**kernels):
        with monkeypatch.context() as m:
            for name, kernel in kernels.items():
                m.setattr(checks, name, kernel)
            results = run_identity_checks(n_modes=16, samples=2, seed=1)
        return {r.name for r in results if not r.passed}

    drift, reaction = checks.coupling_drift_spec, checks.gl_reaction_phys

    def drift_without_stress(grid, spec):
        r = drift(grid, spec)
        at_rest = spec.copy()
        at_rest[2:] = 0.0  # n at rest: no stress in r_u
        r[:2] = drift(grid, at_rest)[:2]
        return r

    def reaction_with_a_tangential_part(n_phys, dt, epsilon):
        e3 = np.array([0.0, 0.0, 1.0])[:, None, None]
        return reaction(n_phys, dt, epsilon) + 1e-3 * np.cross(n_phys, e3, axis=0)

    assert failed() == set()
    assert "stress_transport_cancel" in failed(coupling_drift_spec=drift_without_stress)
    assert "penalty_orthogonal" in failed(gl_reaction_phys=reaction_with_a_tangential_part)


@pytest.mark.parametrize("flags", [["--n-modes", "15"], ["--seed", "-1"],
                                   ["--samples", "0"], ["--samples", "-3"]],
                         ids=["odd-n-modes", "negative-seed", "zero-samples",
                              "negative-samples"])
def test_cli_check_rejects_bad_flags(flags, capsys):
    assert main(["check", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no check ran, so none is reported as passed
    assert captured.err.startswith("config error: check: ")
    assert captured.err.count("\n") == 1


# -- CLI --------------------------------------------------------------------------


def test_cli_dump_config(tmp_path, capsys):
    path = write_config(tmp_path, SMALL_RUN)
    assert main(["dump-config", "-c", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[grid]\nn_modes = 16\n")
    assert "epsilon = 0.3" in out


def test_cli_usage_and_config_errors(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["run", "-c", "/nonexistent.ini"]) == 1
    bad = write_config(tmp_path, "[stepper]\ndt = nope\n")
    assert main(["run", "-c", bad]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "stepper.dt" in err


def test_cli_run_stream_is_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    body = SMALL_RUN + "[output]\nndjson_path = {}\n"
    assert main(["run", "-c", write_config(tmp_path, body.format(out_a))]) == 0
    err = capsys.readouterr().err
    assert "steps = 5" in err and "max |n|" in err
    assert main(["run", "-c", write_config(tmp_path, body.format(out_b))]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first["step"] == 0 and first["min_abs_n"] == 1.0
    assert json.loads(lines[-1])["step"] == 5


def test_cli_run_report_every_keeps_final_row(tmp_path):
    out = tmp_path / "thin.ndjson"
    body = SMALL_RUN + f"[output]\nndjson_path = {out}\nreport_every = 2\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    steps = [json.loads(s)["step"] for s in out.read_text().strip().split("\n")]
    assert steps == [0, 2, 4, 5]  # final row always included


@pytest.mark.parametrize("every", [1, 2])
def test_cli_resume_splices_bitwise(tmp_path, every):
    """A checkpointed prefix plus a resumed suffix reproduces the one-shot
    stream exactly, byte for byte, at every ``output.report_every``: the
    one-shot rows are the prefix's rows before the checkpoint's step, then
    the resumed stream, which starts with the checkpoint's row only when
    that step is on the report clock (the prefix's last row always is)."""
    ck = tmp_path / "mid.ckpt"
    full = tmp_path / "full.ndjson"
    pre = tmp_path / "pre.ndjson"
    tail = tmp_path / "tail.ndjson"
    base = SMALL_RUN.replace("t_end = 0.025", "t_end = {t}")
    output = "[output]\nreport_every = %d\nndjson_path = {path}\n" % every
    # one-shot reference to t = 0.05
    body_full = base.format(t=0.05) + output.format(path=full)
    assert main(["run", "-c", write_config(tmp_path, body_full, "full.ini")]) == 0
    # prefix run to t = 0.025, checkpointing its final state, step 5
    body_pre = base.format(t=0.025) + output.format(path=pre) + f"checkpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body_pre, "pre.ini")]) == 0
    # resume to t = 0.05
    body_res = base.format(t=0.05) + output.format(path=tail)
    assert main(["run", "-c", write_config(tmp_path, body_res, "res.ini"),
                 "--resume", str(ck)]) == 0
    rows = {name: path.read_text().splitlines(keepends=True)
            for name, path in (("full", full), ("pre", pre), ("tail", tail))}
    steps = {name: [json.loads(row)["step"] for row in lines] for name, lines in rows.items()}
    assert steps == {1: {"full": list(range(11)), "pre": list(range(6)),
                         "tail": list(range(5, 11))},
                     2: {"full": [0, 2, 4, 6, 8, 10], "pre": [0, 2, 4, 5],
                         "tail": [6, 8, 10]}}[every]
    before = [row for row, k in zip(rows["pre"], steps["pre"]) if k < 5]
    assert before + rows["tail"] == rows["full"]


def test_cli_resume_prints_the_uninterrupted_summary(tmp_path, capsys):
    """The SMALL_RUN config to t = 0.05, one shot and resumed from its
    step-5 checkpoint: the stderr summaries are byte-equal, energy at the
    start, balance residual, stopping times (the auto delta fires at t = 0),
    local smallness ratio and max |n| included."""
    ck = tmp_path / "mid.ckpt"
    base = SMALL_RUN + "[output]\nndjson_path = -\n"
    longer = base.replace("t_end = 0.025", "t_end = 0.05")
    assert main(["run", "-c", write_config(tmp_path, longer, "full.ini")]) == 0
    one_shot = capsys.readouterr().err
    prefix = base + f"checkpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, prefix, "pre.ini")]) == 0
    capsys.readouterr()
    assert main(["run", "-c", write_config(tmp_path, longer, "res.ini"),
                 "--resume", str(ck)]) == 0
    resumed = capsys.readouterr().err
    assert resumed == one_shot
    assert "sigma1 = 0  " in one_shot and "steps = 10" in one_shot


def resume_from_old_checkpoint(tmp_path, capsys, version):
    """The SMALL_RUN step-5 state rewritten in an old layout, resumed to
    t = 0.05: exit 1, one config error line naming the version, no stream."""
    ck = tmp_path / f"v{version}.ckpt"
    body = SMALL_RUN + f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    capsys.readouterr()
    bundle = build_components(load_config(write_config(tmp_path, body)))
    state, _ = load_checkpoint(str(ck), bundle.state0.grid, bundle.gl, bundle.noise,
                               config_hash(bundle.cfg))
    write_old_checkpoint(str(ck), state, bundle.gl, bundle.noise, version)
    out_path = tmp_path / "resumed.ndjson"
    resumed = SMALL_RUN.replace("t_end = 0.025", "t_end = 0.05") + \
        f"[output]\nndjson_path = {out_path}\n"
    assert main(["run", "-c", write_config(tmp_path, resumed, "res.ini"),
                 "--resume", str(ck)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {ck}: unsupported checkpoint version {version}\n"
    assert not out_path.exists()


def test_cli_resume_refuses_a_version_1_checkpoint(tmp_path, capsys):
    """A version-1 file has no trace, so a run from it could not print the
    uninterrupted summary."""
    resume_from_old_checkpoint(tmp_path, capsys, 1)


def test_cli_resume_refuses_a_version_2_checkpoint(tmp_path, capsys):
    """A version-2 file has no config hash, and its physical payload is not
    the spectra the run continued from."""
    resume_from_old_checkpoint(tmp_path, capsys, 2)


@pytest.mark.parametrize("t", [math.inf, -math.inf])
def test_cli_resume_refuses_a_checkpoint_at_a_non_finite_time(tmp_path, capsys, t):
    """The SMALL_RUN step-5 checkpoint with its header's t overwritten by
    +-inf, resumed to t = 0.05: exit 1, one config error line, no stream.
    Unchecked, such a time passes the step clock (|inf - x| <= 1e-9 * inf)
    and the run prints null times and a NaN balance."""
    ck = tmp_path / "mid.ckpt"
    body = SMALL_RUN + f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    capsys.readouterr()
    blob = bytearray(ck.read_bytes())
    at = struct.calcsize("<4sIIQQQd")  # magic, version, n, step, seed, path_id, eps
    assert struct.unpack_from("<d", blob, at) == (0.025,)
    struct.pack_into("<d", blob, at, t)
    ck.write_bytes(bytes(blob))
    out_path = tmp_path / "resumed.ndjson"
    resumed = SMALL_RUN.replace("t_end = 0.025", "t_end = 0.05") + \
        f"[output]\nndjson_path = {out_path}\n"
    assert main(["run", "-c", write_config(tmp_path, resumed, "res.ini"),
                 "--resume", str(ck)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {ck}: non-finite time t = {t}\n"
    assert not out_path.exists()


def test_config_hash_covers_what_sets_the_trajectory():
    """Every key of the hashed sections but stepper.t_end changes the hash;
    t_end, the output settings and the converge/ensemble keys do not."""
    from nsgl.io_cli import _HASHED_SECTIONS, _SCHEMA

    base = {sec: {key: default for key, (_, default) in keys.items()}
            for sec, keys in _SCHEMA.items()}
    ref = config_hash(base)
    assert len(ref) == 32
    bumped = {"int": lambda v: v + 1, "float": lambda v: v * 1.5 + 0.25,
              "bool": lambda v: not v, "str": lambda v: v + "x",
              "auto_float": lambda v: 0.5, "float_list": lambda v: v + (0.01,)}
    for sec, keys in _SCHEMA.items():
        for key, (kind, default) in keys.items():
            values = {s: dict(k) for s, k in base.items()}
            values[sec][key] = bumped[kind](default)
            hashed = sec in _HASHED_SECTIONS and (sec, key) != ("stepper", "t_end")
            assert (config_hash(values) != ref) == hashed, (sec, key)


def test_cli_resume_refuses_another_config(tmp_path, capsys):
    """The SMALL_RUN step-5 checkpoint (noise.gamma = 3) resumed to t = 0.05
    under gamma = 5 would charge gamma = 5's TrQ over the whole run: exit 1,
    one config error line, no stream.  A longer t_end and another
    ndjson_path are not part of the hash, so that resume goes through."""
    ck = tmp_path / "mid.ckpt"
    body = SMALL_RUN + f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "resumed.ndjson"
    resumed = SMALL_RUN.replace("t_end = 0.025", "t_end = 0.05") + \
        f"[output]\nndjson_path = {out_path}\n"
    other = resumed.replace("[noise]\n", "[noise]\ngamma = 5\n")
    assert main(["run", "-c", write_config(tmp_path, other, "gamma.ini"),
                 "--resume", str(ck)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"config error: {ck}: written under another config "
                          f"(config hash mismatch)")
    assert not out_path.exists()
    assert main(["run", "-c", write_config(tmp_path, resumed, "res.ini"),
                 "--resume", str(ck)]) == 0
    capsys.readouterr()
    assert [json.loads(line)["step"] for line in out_path.read_text().splitlines()] == \
        list(range(5, 11))


def test_a_value_hashes_and_echoes_the_same_whatever_its_spelling(tmp_path, capsys):
    """``stops.delta`` and ``convergence.eps_family`` are typed on load, so
    ``0.5``, ``5e-1`` and ``0.50`` are one config: one hash, one echo line,
    and a checkpoint written under one spelling resumes under another, its
    stream spliced onto the prefix byte-equal to the one-shot run."""
    spellings = ("0.5", "5e-1", "0.50")
    cfgs = [load_config(write_config(
        tmp_path, SMALL_RUN + f"[stops]\ndelta = {d}\n[convergence]\neps_family = "
        f"0.40,.2 , 1e-1\n")) for d in spellings]
    assert len({config_hash(cfg) for cfg in cfgs}) == 1
    echo, = {dump_config(cfg) for cfg in cfgs}
    assert "delta = 0.5\n" in echo and "eps_family = 0.4, 0.2, 0.1\n" in echo

    def body(delta, t_end, out, extra=""):
        return SMALL_RUN.replace("t_end = 0.025", f"t_end = {t_end}") + \
            f"[stops]\ndelta = {delta}\n[output]\nndjson_path = {out}\n{extra}"

    full, prefix, rest = (tmp_path / f"{n}.ndjson" for n in ("full", "prefix", "rest"))
    ck = tmp_path / "mid.ckpt"
    assert main(["run", "-c", write_config(tmp_path, body("0.50", 0.05, full), "full.ini")]) == 0
    summary = capsys.readouterr().err
    assert main(["run", "-c", write_config(tmp_path, body(
        "0.5", 0.025, prefix, f"checkpoint_path = {ck}\n"), "prefix.ini")]) == 0
    capsys.readouterr()
    assert main(["run", "-c", write_config(tmp_path, body("5e-1", 0.05, rest), "rest.ini"),
                 "--resume", str(ck)]) == 0
    assert capsys.readouterr().err == summary
    head = prefix.read_bytes().splitlines(keepends=True)[:-1]  # the checkpoint's row is rest's
    assert b"".join(head) + rest.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("clash", ["checkpoint_path", "resume"])
def test_cli_run_refuses_a_stream_onto_its_checkpoint(tmp_path, capsys, clash):
    """An ``ndjson_path`` that resolves to ``checkpoint_path`` or to the
    ``--resume`` source would truncate the checkpoint and exit 0: it is a
    config error, and neither the stream nor the checkpoint is written."""
    ck = tmp_path / "mid.ckpt"
    body = SMALL_RUN + f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    capsys.readouterr()
    saved = ck.read_bytes()
    alias = tmp_path / "sub" / ".." / "mid.ckpt"  # the same file, spelled otherwise
    (tmp_path / "sub").mkdir()
    if clash == "checkpoint_path":
        body = SMALL_RUN + (f"[output]\nndjson_path = {alias}\ncheckpoint_path = {ck}\n"
                            f"checkpoint_every = 5\n")
        resume, name = [], "output.checkpoint_path"
    else:
        body = SMALL_RUN.replace("t_end = 0.025", "t_end = 0.05") + \
            f"[output]\nndjson_path = {alias}\n"
        resume, name = ["--resume", str(ck)], "--resume"
    assert main(["run", "-c", write_config(tmp_path, body, "clash.ini"), *resume]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: output.ndjson_path names the same file as {name}\n"
    assert ck.read_bytes() == saved


@pytest.mark.parametrize("key", ["ndjson_path", "checkpoint_path"])
def test_cli_run_refuses_an_output_onto_its_config(tmp_path, capsys, key):
    """An ``ndjson_path`` or ``checkpoint_path`` that resolves to the config
    file would overwrite the config with rows or a checkpoint and exit 0: it
    is a config error, raised before anything is opened, and the config's
    bytes are unchanged."""
    (tmp_path / "sub").mkdir()
    alias = tmp_path / "sub" / ".." / "self.ini"  # the config, spelled otherwise
    path = write_config(tmp_path, SMALL_RUN + f"[output]\n{key} = {alias}\n", "self.ini")
    before = (tmp_path / "self.ini").read_bytes()
    assert main(["run", "-c", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: output.{key} names the config file itself\n"
    assert (tmp_path / "self.ini").read_bytes() == before


@pytest.mark.parametrize("every, t_end, saved, resume", [
    (0, 0.025, [5], False), (2, 0.025, [2, 4, 5], False), (5, 0.025, [5], False),
    (5, 0.05, [10], True), (0, 0.0, [], False), (0, 0.025, [], True),
], ids=["end-only", "every-2", "every-5", "resume-every-5", "t-end-0", "resume-at-end"])
def test_cli_run_writes_each_checkpoint_once(tmp_path, capsys, monkeypatch, every, t_end,
                                             saved, resume):
    """Only states a step produced are saved, on the checkpoint_every clock
    and at the final step, each once: neither step 0 nor the state a run
    resumed from, so a run that takes no step writes no checkpoint."""
    import nsgl.io_cli as io_cli

    ck = tmp_path / "run.ckpt"
    body = SMALL_RUN + (f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
                        f"checkpoint_every = {every}\n")
    argv = ["run", "-c", write_config(tmp_path, body)]
    if resume:
        assert main(argv) == 0  # saves step 5
    body = body.replace("t_end = 0.025", f"t_end = {t_end}")
    argv = ["run", "-c", write_config(tmp_path, body, "second.ini")]
    if resume:
        argv += ["--resume", str(ck)]
    steps = []

    def counting_save(path, state, trace, gl, noise, cfg_hash):
        steps.append(state.step)
        assert trace.last.step == state.step  # the trace up to the saved state
        save_checkpoint(path, state, trace, gl, noise, cfg_hash)

    monkeypatch.setattr(io_cli, "save_checkpoint", counting_save)
    assert main(argv) == 0
    capsys.readouterr()
    assert steps == saved
    if not resume and not saved:
        assert not ck.exists()
    else:
        bundle = build_components(load_config(argv[2]))
        loaded, _ = load_checkpoint(str(ck), bundle.state0.grid, bundle.gl, bundle.noise,
                                    config_hash(bundle.cfg))
        assert loaded.step == (saved[-1] if saved else 5)


def test_cli_resume_rejects_mismatched_identity(tmp_path, capsys):
    ck = tmp_path / "mid.ckpt"
    body = SMALL_RUN + f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    other_eps = body.replace("epsilon = 0.3", "epsilon = 0.2")
    assert main(["run", "-c", write_config(tmp_path, other_eps, "eps.ini"),
                 "--resume", str(ck)]) == 1
    other_seed = body.replace("seed = 9", "seed = 10")
    assert main(["run", "-c", write_config(tmp_path, other_seed, "seed.ini"),
                 "--resume", str(ck)]) == 1
    err = capsys.readouterr().err
    assert "epsilon" in err and "seed" in err


def test_cli_resume_refuses_checkpoint_off_the_step_clock(tmp_path, capsys):
    """A checkpoint from step 5 at dt = 5e-3 (t = 0.025) cannot continue a
    run at another dt: resuming it would run from the wrong step count.
    stepper.dt is in the config hash, so a config with another dt is refused
    by the loader; a file whose t is off this config's clock, and a run that
    ends before the checkpoint's step, by the step-clock check."""
    ck = tmp_path / "mid.ckpt"
    body = SMALL_RUN + f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    capsys.readouterr()
    out = tmp_path / "resumed.ndjson"
    resumed = SMALL_RUN + f"[output]\nndjson_path = {out}\n"
    # 5 steps of 2e-2: the step count fits, but step 5 is t = 0.1, not 0.025
    coarse = resumed.replace("dt = 5e-3", "dt = 2e-2").replace("t_end = 0.025", "t_end = 0.1")
    assert main(["run", "-c", write_config(tmp_path, coarse, "coarse.ini"),
                 "--resume", str(ck)]) == 1
    assert "config hash mismatch" in capsys.readouterr().err
    # the same step 5 at t = 0.1, under the config that wrote it
    bundle = build_components(load_config(write_config(tmp_path, body)))
    cfg_hash = config_hash(bundle.cfg)
    state, trace = load_checkpoint(str(ck), bundle.state0.grid, bundle.gl, bundle.noise, cfg_hash)
    off = tmp_path / "off.ckpt"
    save_checkpoint(str(off), dataclasses.replace(state, t=0.1, step=5), trace,
                    bundle.gl, bundle.noise, cfg_hash)
    assert main(["run", "-c", write_config(tmp_path, resumed.replace("t_end = 0.025",
                                                                     "t_end = 0.05"),
                                           "later.ini"),
                 "--resume", str(off)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: checkpoint t = 0.10000000000000001 at step 5") \
        and "stepper.dt = 0.005" in err
    # 4 steps of 5e-3: step 5 is past the end of the run
    short = resumed.replace("t_end = 0.025", "t_end = 0.02")
    assert main(["run", "-c", write_config(tmp_path, short, "short.ini"),
                 "--resume", str(ck)]) == 1
    assert "step 5 is past the configured 4 steps" in capsys.readouterr().err
    assert not out.exists()


def test_cli_cfl_failure_exits_two(tmp_path, capsys):
    body = """
[grid]
n_modes = 16
[stepper]
dt = 0.05
t_end = 0.05
max_halvings = 0
[initial]
u0 = shear
u0_amplitude = 200.0
n0 = constant_e3
[noise]
mode_cutoff = 4
"""
    assert main(["run", "-c", write_config(tmp_path, body)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_cli_out_of_memory_ends_in_one_line(tmp_path, capsys, monkeypatch):
    """A grid or an ensemble too large to allocate exits 1 with one stderr
    line, not a traceback."""
    def refuse(cfg):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr("nsgl.io_cli.build_components", refuse)
    assert main(["dump-config", "-c", write_config(tmp_path, SMALL_RUN)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "out of memory: Unable to allocate 149. GiB for an array\n"


def test_cli_check_subcommand(capsys):
    assert main(["check", "--n-modes", "32", "--samples", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 10 and "FAIL" not in out
    assert "10 of 10 identity checks passed" in out


def test_cli_converge_writes_member_streams(tmp_path, capsys):
    mdir = tmp_path / "members"
    body = f"""
[grid]
n_modes = 16
[stepper]
dt = 5e-3
t_end = 0.015
[noise]
seed = 4
mode_cutoff = 4
[initial]
n0 = circle_x1
[convergence]
eps_family = 0.2, 0.1
n_paths = 1
output_dir = {mdir}
"""
    assert main(["converge", "-c", write_config(tmp_path, body)]) == 0
    out = capsys.readouterr().out
    assert "relaxation family report" in out and "rate_defect" in out
    streams = sorted(p.name for p in mdir.iterdir())
    assert len(streams) == 2 and all(s.startswith("path000_eps") for s in streams)
    for p in mdir.iterdir():
        rows = [json.loads(s) for s in p.read_text().strip().split("\n")]
        assert [r["step"] for r in rows] == [0, 1, 2, 3]


def test_cli_ensemble_subcommand(tmp_path, capsys):
    body = SMALL_RUN + "[ensemble]\nn_paths = 2\n"
    assert main(["ensemble", "-c", write_config(tmp_path, body)]) == 0
    out = capsys.readouterr().out
    assert "ensemble report" in out and "paths = 2" in out and "balance mean" in out


@pytest.mark.parametrize("command, keys", [
    ("run", "[output]\nndjson_path = {missing}/run.ndjson\n"),
    ("run", "[output]\ncheckpoint_path = {missing}/run.ckpt\ncheckpoint_every = 2\n"),
    ("converge", "[convergence]\neps_family = 0.2, 0.1\nn_paths = 1\noutput_dir = {file}\n"),
], ids=["ndjson_path", "checkpoint_path", "output_dir"])
def test_cli_output_errors_end_in_one_line(tmp_path, capsys, command, keys):
    """An output that cannot be written (a stream or a checkpoint in a
    missing directory; an output_dir that is a file) exits 1 with one
    stderr line."""
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    body = SMALL_RUN + keys.format(missing=tmp_path / "missing", file=taken)
    assert main([command, "-c", write_config(tmp_path, body)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("output error: ")
    assert str(tmp_path) in err


def test_cli_run_checks_the_checkpoint_directory_before_any_row(tmp_path, capsys):
    """A checkpoint path in a missing directory fails the run before it
    opens the NDJSON stream or takes a step: no row is written, and the one
    stderr line names the configured path, not a temporary file."""
    ckpt = tmp_path / "missing" / "run.ckpt"
    body = SMALL_RUN.replace("t_end = 0.025", "t_end = 0.05") + (
        f"[output]\nndjson_path = {tmp_path / 'run.ndjson'}\n"
        f"checkpoint_path = {ckpt}\ncheckpoint_every = 5\n")
    assert main(["run", "-c", write_config(tmp_path, body)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"output error: [Errno 2] No such file or directory: '{ckpt}'\n"
    assert not (tmp_path / "run.ndjson").exists()


def test_failed_checkpoint_save_names_the_configured_path(grid16, tmp_path, monkeypatch):
    """An OSError on the temporary file, here from the final rename, names
    the checkpoint path the caller gave."""
    import nsgl.io_cli as io_cli

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src, dst)

    monkeypatch.setattr(io_cli.os, "replace", refuse)
    path = str(tmp_path / "state.ckpt")
    with pytest.raises(PermissionError) as info:
        save_checkpoint(path, small_state(grid16), RunTrace(), GLParams(epsilon=0.25),
                        NoiseModel(grid16, mode_cutoff=4), CFG_HASH)
    assert str(info.value) == f"[Errno 13] Permission denied: {path!r}"
    assert list(tmp_path.iterdir()) == []
