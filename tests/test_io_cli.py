"""Config parsing, checkpoint format, NDJSON framing, and CLI behavior.

The CLI tests drive ``main(argv)`` in-process so exit codes and streams are
asserted directly; nothing here shells out.
"""

import json
import math

import numpy as np
import pytest

from nsgl.checks import run_identity_checks
from nsgl.diagnostics import EnergyReport, RunTrace
from nsgl.grid import DirectorField, VelocityField
from nsgl.io_cli import (
    REPORT_KEYS,
    ConfigError,
    build_components,
    dump_config,
    format_report,
    load_checkpoint,
    load_config,
    main,
    parse_eps_family,
    save_checkpoint,
)
from nsgl.operators import GLParams
from nsgl.noise import NoiseModel
from nsgl.stepper import SimState


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
    assert cfg.get("grid", "n_modes") == 32
    assert cfg.get("stepper", "dt") == 1e-3
    assert cfg.get("noise", "velocity_on") is True
    assert cfg.get("stops", "delta") == "auto"
    assert cfg.get("convergence", "alpha") == 1.0


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
    assert cfg.get("gl", "epsilon") == 0.25
    assert cfg.get("noise", "seed") == 3


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/run.ini")


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


def test_nan_stop_delta_is_config_error(tmp_path):
    cfg = load_config(write_config(tmp_path, "[stops]\ndelta = nan\n"))
    with pytest.raises(ConfigError, match=r"stops\.delta"):
        build_components(cfg)


def test_negative_mode_cutoff_is_config_error(tmp_path):
    cfg = load_config(write_config(tmp_path, "[noise]\nmode_cutoff = -3\n"))
    with pytest.raises(ConfigError, match=r"noise\.mode_cutoff"):
        build_components(cfg)


def test_cli_ensemble_rejects_path_ids_beyond_stream_key(tmp_path, capsys):
    body = SMALL_RUN.replace("mode_cutoff = 4", f"mode_cutoff = 4\npath_id = {2**64 - 1}") \
        + "[ensemble]\nn_paths = 2\n"
    assert main(["ensemble", "-c", write_config(tmp_path, body)]) == 1
    assert "noise.path_id + ensemble.n_paths" in capsys.readouterr().err


def test_parse_eps_family():
    assert parse_eps_family("0.4, 0.2 ,0.1") == (0.4, 0.2, 0.1)
    for bad in ("", "0.4, zero", "0.4, -0.2", "0.1, 0.1"):
        with pytest.raises(ConfigError):
            parse_eps_family(bad)


# -- presets ----------------------------------------------------------------------


def test_initial_presets_build_consistent_state(tmp_path):
    bundle = build_components(load_config(write_config(tmp_path, SMALL_RUN)))
    st = bundle.state0
    x1, x2 = bundle.grid.meshgrid()
    assert np.allclose(st.u.phys[0], 0.2 * np.sin(x2), atol=1e-12)
    assert np.allclose(st.u.phys[1], 0.0, atol=1e-13)
    assert st.u.divergence_defect() < 1e-12
    assert np.allclose(st.n.norm_phys(), 1.0, atol=1e-12)
    # constant h with magnitude m means each component equals m
    assert np.allclose(bundle.noise.h.phys, 1.0)


def test_taylor_green_and_random_band_are_divergence_free(tmp_path):
    for preset in ("taylor_green", "random_band"):
        body = f"[grid]\nn_modes = 16\n[initial]\nu0 = {preset}\nseed = 5\n"
        bundle = build_components(load_config(write_config(tmp_path, body)))
        assert bundle.state0.u.divergence_defect() < 1e-12
        if preset == "random_band":
            assert float(np.max(np.abs(bundle.state0.u.phys))) > 0.0


def test_random_director_presets(tmp_path):
    base = "[grid]\nn_modes = 16\n[initial]\nn0 = {n0}\nnormalize_n0 = {norm}\nseed = 5\n"
    unit = build_components(load_config(write_config(
        tmp_path, base.format(n0="random_unit", norm="false")))).state0
    assert np.allclose(unit.n.norm_phys(), 1.0, atol=1e-12)  # forced for this preset
    raw = build_components(load_config(write_config(
        tmp_path, base.format(n0="random_band", norm="false")))).state0
    assert abs(float(np.max(raw.n.norm_phys())) - 1.0) > 1e-3


def test_file_preset_round_trip_and_shape_check(tmp_path):
    rng = np.random.default_rng(0)
    n0 = rng.standard_normal((3, 16, 16))
    n0 /= np.sqrt(np.sum(n0 * n0, axis=0))
    path = tmp_path / "n0.npy"
    np.save(path, n0)
    body = f"[grid]\nn_modes = 16\n[initial]\nn0 = file:{path}\nnormalize_n0 = false\n"
    bundle = build_components(load_config(write_config(tmp_path, body)))
    assert np.array_equal(bundle.state0.n.phys, n0)
    bad = tmp_path / "bad.npy"
    np.save(bad, np.zeros((3, 8, 8)))
    body = f"[grid]\nn_modes = 16\n[initial]\nn0 = file:{bad}\n"
    with pytest.raises(ConfigError, match="shape"):
        build_components(load_config(write_config(tmp_path, body)))


@pytest.mark.parametrize("key, n_comp", [("u0", 2), ("n0", 3)])
@pytest.mark.parametrize("kind, pattern", [
    ("text", "cannot read field file"),
    ("string-array", "does not hold a real numeric array"),
    ("complex-array", "does not hold a real numeric array"),
    ("nan-entry", "has non-finite entries"),
])
def test_malformed_field_file_is_config_error(tmp_path, capsys, key, n_comp, kind, pattern):
    path = tmp_path / "field.npy"
    if kind == "text":
        path.write_text("not an array\n", encoding="utf-8")
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


def test_single_mode_axis_profile(tmp_path):
    body = "[grid]\nn_modes = 16\n[h_field]\nprofile = single_mode\nmagnitude = 2.0\n"
    bundle = build_components(load_config(write_config(tmp_path, body)))
    x1, _ = bundle.grid.meshgrid()
    assert np.allclose(bundle.noise.h.phys[0], 2.0 * np.cos(x1), atol=1e-12)
    assert np.allclose(bundle.noise.h.phys[1], bundle.noise.h.phys[0])


# -- checkpoints -------------------------------------------------------------------


def small_state(grid16, seed=3):
    rng = np.random.default_rng(seed)
    from nsgl.grid import random_band_limited
    from nsgl.operators import leray_project_spec

    u = random_band_limited(grid16, 2, 4, rng, 0.3)
    u_spec = grid16.dealias(leray_project_spec(grid16, grid16.to_spec(u)))
    n = random_band_limited(grid16, 3, 4, rng, 0.2)
    n[2] += 1.0
    return SimState(t=0.375, step=12,
                    u=VelocityField(grid16, spec=u_spec),
                    n=DirectorField(grid16, phys=n))


def test_checkpoint_round_trip_is_bitwise(grid16, tmp_path):
    st = small_state(grid16)
    gl, noise = GLParams(epsilon=0.25), NoiseModel(grid16, seed=21, path_id=4, mode_cutoff=4)
    path = str(tmp_path / "state.ckpt")
    trace = RunTrace(t0=0.125, e0=40.25, int_d=1.5, sum_u_dw=-0.25, sum_grad_cross=0.0625,
                     sum_cross_sq=0.5, sup_e=41.0, max_n=1.0, ls_l4=1.75, ls_lap=3.5,
                     ls_grad=7.0, ls_sup=2.25, t_sigma1=0.25)
    save_checkpoint(path, st, trace, gl, noise)
    loaded, loaded_trace = load_checkpoint(path, grid16, gl, noise)
    assert isinstance(loaded, SimState)
    assert np.array_equal(loaded.u.phys, st.u.phys)
    assert np.array_equal(loaded.n.phys, st.n.phys)
    assert loaded.t == 0.375 and loaded.step == 12
    # the stored numbers come back; the last report and delta are the run's
    assert loaded_trace == RunTrace(**{**vars(trace), "last": None})
    assert loaded_trace.t_sigma2 == math.inf


def write_v1_checkpoint(path, state, gl, noise):
    """The version-1 layout: the v2 header without the trace numbers."""
    import struct

    n = state.grid.n_modes
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIQQQdd", b"NSGL", 1, n, state.step, noise.seed,
                             noise.path_id, gl.epsilon, state.t))
        fh.write(np.ascontiguousarray(state.u.phys, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(state.n.phys, dtype="<f8").tobytes())


def test_checkpoint_error_cases(grid16, tmp_path):
    st = small_state(grid16)
    gl, noise = GLParams(epsilon=0.25), NoiseModel(grid16, seed=21, path_id=4, mode_cutoff=4)
    path = tmp_path / "state.ckpt"
    save_checkpoint(str(path), st, RunTrace(), gl, noise)
    blob = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ConfigError, match="bad magic"):
        load_checkpoint(str(bad), grid16, gl, noise)
    bad.write_bytes(blob[:4] + b"\x63\x00\x00\x00" + blob[8:])
    with pytest.raises(ConfigError, match="version"):
        load_checkpoint(str(bad), grid16, gl, noise)
    bad.write_bytes(blob[:-16])
    with pytest.raises(ConfigError, match="truncated"):
        load_checkpoint(str(bad), grid16, gl, noise)
    bad.write_bytes(blob[:10])
    with pytest.raises(ConfigError, match="too short"):
        load_checkpoint(str(bad), grid16, gl, noise)
    with pytest.raises(ConfigError, match="cannot read checkpoint"):
        load_checkpoint(str(tmp_path / "absent.ckpt"), grid16, gl, noise)
    from nsgl.grid import SpectralGrid
    with pytest.raises(ConfigError, match="grid mismatch"):
        load_checkpoint(str(path), SpectralGrid(32), gl, noise)
    with pytest.raises(ConfigError, match=r"^checkpoint epsilon 0\.25 != config gl\.epsilon 0\.5$"):
        load_checkpoint(str(path), grid16, GLParams(epsilon=0.5), noise)
    for other in (NoiseModel(grid16, seed=22, path_id=4, mode_cutoff=4),
                  NoiseModel(grid16, seed=21, path_id=5, mode_cutoff=4)):
        with pytest.raises(ConfigError, match=r"noise identity \(seed, path_id\)"):
            load_checkpoint(str(path), grid16, gl, other)
    write_v1_checkpoint(str(bad), st, gl, noise)
    with pytest.raises(ConfigError, match=r"unsupported checkpoint version 1$"):
        load_checkpoint(str(bad), grid16, gl, noise)
    for name, value in [("int_d", math.nan), ("sup_e", math.inf), ("t_sigma1", -math.inf),
                        ("t_sigma2", math.nan)]:
        save_checkpoint(str(bad), st, RunTrace(**{name: value}), gl, noise)
        with pytest.raises(ConfigError, match=r"non-finite value in the run trace$"):
            load_checkpoint(str(bad), grid16, gl, noise)


@pytest.mark.parametrize("kind, pattern", [
    ("divergent", r"velocity divergence defect .* exceeds 1e-10$"),
    ("out-of-band", r"velocity content outside the 2/3 band is 1 of its largest"),
    ("nan-payload", r"non-finite value in the state$"),
])
def test_checkpoint_refuses_what_a_run_cannot_continue(grid16, tmp_path, capsys, kind,
                                                        pattern):
    """A checkpoint no nsgl step writes (a velocity outside the exchange
    drift's precondition, or a non-finite value) is refused, by the library
    and by `run --resume` (exit 1, one config error line), never repaired.
    Header and clock fit the SMALL_RUN config resumed at step 5."""
    x1 = grid16.x1[:, None] + 0.0 * grid16.x2[None, :]
    u = np.stack([np.zeros_like(x1), np.sin(x1)])
    n = np.zeros((3, 16, 16))
    n[2] = 1.0
    if kind == "divergent":  # a gradient part, divergence -sin(x1)
        u[0] = np.cos(x1)
    elif kind == "out-of-band":  # solenoidal, but k1 = 7 > N/3
        u[1] += np.sin(7.0 * x1)
    else:
        n[0, 3, 4] = np.nan
    gl, noise = GLParams(epsilon=0.3), NoiseModel(grid16, seed=9, mode_cutoff=4)
    path = tmp_path / f"{kind}.ckpt"
    save_checkpoint(str(path), SimState(t=0.025, step=5, u=VelocityField(grid16, phys=u),
                                        n=DirectorField(grid16, phys=n)), RunTrace(), gl, noise)
    with pytest.raises(ConfigError, match=pattern):
        load_checkpoint(str(path), grid16, gl, noise)
    out_path = tmp_path / "resumed.ndjson"
    body = SMALL_RUN.replace("t_end = 0.025", "t_end = 0.05") + \
        f"[output]\nndjson_path = {out_path}\n"
    assert main(["run", "-c", write_config(tmp_path, body), "--resume", str(path)]) == 1
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
    save_checkpoint(str(path), small_state(grid16), RunTrace(), GLParams(epsilon=0.25), noise)
    before = path.read_bytes()

    calls = []
    real = np.ascontiguousarray

    def fail_on_director(a, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # the header and u are written by now
            raise OSError("disk full")
        return real(a, *args, **kwargs)

    monkeypatch.setattr(io_cli.np, "ascontiguousarray", fail_on_director)
    later = small_state(grid16, seed=4)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(str(path), later, RunTrace(), GLParams(epsilon=0.25), noise)
    assert len(calls) == 2
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]

    monkeypatch.undo()
    save_checkpoint(str(path), later, RunTrace(), GLParams(epsilon=0.25), noise)
    loaded, _ = load_checkpoint(str(path), grid16, GLParams(epsilon=0.25), noise)
    assert np.array_equal(loaded.n.phys, later.n.phys)
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


def test_cli_resume_splices_bitwise(tmp_path, capsys):
    """A checkpointed prefix plus a resumed suffix reproduces the one-shot

    stream exactly, byte for byte."""
    ck = tmp_path / "mid.ckpt"
    full = tmp_path / "full.ndjson"
    tail = tmp_path / "tail.ndjson"
    base = SMALL_RUN.replace("t_end = 0.025", "t_end = {t}")
    # one-shot reference to t = 0.05
    body_full = base.format(t=0.05) + f"[output]\nndjson_path = {full}\n"
    assert main(["run", "-c", write_config(tmp_path, body_full, "full.ini")]) == 0
    # prefix run to t = 0.025, checkpointing its final state
    body_pre = base.format(t=0.025) + \
        f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body_pre, "pre.ini")]) == 0
    # resume to t = 0.05
    body_res = base.format(t=0.05) + f"[output]\nndjson_path = {tail}\n"
    assert main(["run", "-c", write_config(tmp_path, body_res, "res.ini"),
                 "--resume", str(ck)]) == 0
    capsys.readouterr()
    full_lines = full.read_text().split("\n")
    tail_lines = tail.read_text().split("\n")
    assert tail_lines == full_lines[5:]


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


def test_cli_resume_refuses_a_version_1_checkpoint(tmp_path, capsys):
    """A version-1 file has no trace, so a run from it could not print the
    uninterrupted summary: exit 1, one config error line, no stream."""
    ck = tmp_path / "v1.ckpt"
    body = SMALL_RUN + f"[output]\nndjson_path = -\ncheckpoint_path = {ck}\n"
    assert main(["run", "-c", write_config(tmp_path, body)]) == 0
    capsys.readouterr()
    bundle = build_components(load_config(write_config(tmp_path, body)))
    state, _ = load_checkpoint(str(ck), bundle.grid, bundle.gl, bundle.noise)
    write_v1_checkpoint(str(ck), state, bundle.gl, bundle.noise)
    out_path = tmp_path / "resumed.ndjson"
    resumed = SMALL_RUN.replace("t_end = 0.025", "t_end = 0.05") + \
        f"[output]\nndjson_path = {out_path}\n"
    assert main(["run", "-c", write_config(tmp_path, resumed, "res.ini"),
                 "--resume", str(ck)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: {ck}: unsupported checkpoint version 1\n"
    assert not out_path.exists()


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

    def counting_save(path, state, trace, gl, noise):
        steps.append(state.step)
        assert trace.last.step == state.step  # the trace up to the saved state
        save_checkpoint(path, state, trace, gl, noise)

    monkeypatch.setattr(io_cli, "save_checkpoint", counting_save)
    assert main(argv) == 0
    capsys.readouterr()
    assert steps == saved
    if not resume and not saved:
        assert not ck.exists()
    else:
        bundle = build_components(load_config(argv[2]))
        assert load_checkpoint(str(ck), bundle.grid, bundle.gl, bundle.noise)[0].step == \
            (saved[-1] if saved else 5)


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
    run at another dt: resuming it would run from the wrong step count."""
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
    err = capsys.readouterr().err
    assert err.startswith("config error: checkpoint t = 0.025") and "stepper.dt" in err
    # 4 steps of 1e-2: step 5 is past the end of the run
    short = resumed.replace("dt = 5e-3", "dt = 1e-2").replace("t_end = 0.025", "t_end = 0.04")
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
