"""Config files, initial-data presets, checkpoints, NDJSON reports, and the CLI.

The config format is INI with a fixed schema (see _SCHEMA): unknown sections
or keys are errors, every key has a typed default, and `dump-config` echoes
the fully validated file in canonical order.  Checkpoints are a fixed-layout
binary snapshot of the physical state and of the run's trace; reloading one
and continuing must reproduce the uninterrupted run bit for bit, its stderr
summary included, so loading repairs nothing: a checkpoint of another
version, grid, epsilon or noise identity, with a non-finite value, or with a
velocity that is not solenoidal and inside the 2/3 band is refused, and so
is a resume from a checkpoint off the configured step clock.

Report lines are newline-delimited JSON, one object per recorded step, all
floats printed with 17 significant digits.  Every value is a pure function
of the instantaneous state, which is what makes resumed streams splice
exactly onto the original ones.

`check` prints the identity suite of :mod:`nsgl.checks`; every other command
starts from one validated config.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import struct
import sys
from dataclasses import dataclass, fields

import numpy as np

from .checks import run_identity_checks
from .diagnostics import CoveringSet, EnergyReport, RunTrace
from .experiments import (
    NumericsError,
    run_coupled_family,
    run_ensemble,
    run_path,
)
from .grid import DirectorField, SpectralGrid, VelocityField, random_band_limited
from .noise import NoiseModel
from .operators import GLParams, leray_project_spec
from .stepper import CflError, SimState, StepperConfig

__all__ = [
    "ConfigError",
    "SimConfig",
    "SimBundle",
    "load_config",
    "dump_config",
    "build_components",
    "parse_eps_family",
    "save_checkpoint",
    "load_checkpoint",
    "REPORT_KEYS",
    "format_report",
    "main",
]


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


# section -> key -> (type tag, default).  Key order here is the canonical
# order used by dump_config.
_SCHEMA = {
    "grid": {
        "n_modes": ("int", 64),
    },
    "stepper": {
        "dt": ("float", 1e-3),
        "t_end": ("float", 0.25),
        "cfl_safety": ("float", 0.5),
        "max_halvings": ("int", 8),
    },
    "gl": {
        "epsilon": ("float", 0.1),
    },
    "noise": {
        "gamma": ("float", 3.0),
        "mode_cutoff": ("int", 0),
        "seed": ("int", 0),
        "path_id": ("int", 0),
        "velocity_on": ("bool", True),
        "director_on": ("bool", True),
    },
    "h_field": {
        "profile": ("str", "constant"),
        "magnitude": ("float", 1.0),
    },
    "initial": {
        "u0": ("str", "zero"),
        "n0": ("str", "constant_e3"),
        "u0_amplitude": ("float", 0.5),
        "n0_amplitude": ("float", 0.3),
        "normalize_n0": ("bool", True),
        "seed": ("int", 7),
    },
    "stops": {
        "delta": ("str", "auto"),
        "radius": ("float", 0.7853981633974483),
    },
    "output": {
        "ndjson_path": ("str", "-"),
        "report_every": ("int", 1),
        "checkpoint_path": ("str", ""),
        "checkpoint_every": ("int", 0),
    },
    "convergence": {
        "eps_family": ("str", "0.4, 0.2, 0.1, 0.05"),
        "alpha": ("float", 1.0),
        "n_paths": ("int", 8),
        "output_dir": ("str", ""),
    },
    "ensemble": {
        "n_paths": ("int", 64),
    },
}

_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _convert(section: str, key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            value = float(raw)
        elif kind == "bool":
            return _BOOL_WORDS[raw.lower()]
        else:
            return raw
    except (ValueError, KeyError):
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {kind}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: {raw!r} is not a finite number")
    return value


@dataclass
class SimConfig:
    """Typed configuration values, every schema key present."""

    values: dict

    def get(self, section: str, key: str):
        return self.values[section][key]

    def section(self, name: str) -> dict:
        return self.values[name]


def load_config(path: str) -> SimConfig:
    """Parse and type-check an INI file against the schema.

    Unknown sections or keys, and values that fail to parse, raise
    ConfigError; syntax errors keep configparser's line numbers.
    """
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    values = {sec: {key: default for key, (_, default) in keys.items()}
              for sec, keys in _SCHEMA.items()}
    for sec in parser.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, raw in parser.items(sec):
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown config key {sec}.{key}")
            values[sec][key] = _convert(sec, key, _SCHEMA[sec][key][0], raw)
    return SimConfig(values=values)


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dump_config(cfg: SimConfig) -> str:
    """Canonical INI echo: schema order, defaults filled in."""
    lines = []
    for sec, keys in _SCHEMA.items():
        lines.append(f"[{sec}]")
        for key in keys:
            lines.append(f"{key} = {_format_value(cfg.values[sec][key])}")
        lines.append("")
    return "\n".join(lines)


def parse_eps_family(text: str) -> tuple[float, ...]:
    try:
        eps = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"convergence.eps_family: cannot parse {text!r}") from None
    if not eps:
        raise ConfigError("convergence.eps_family: needs at least one value")
    if any(e <= 0.0 for e in eps):
        raise ConfigError("convergence.eps_family: entries must be > 0")
    if len(set(eps)) != len(eps):
        raise ConfigError("convergence.eps_family: entries must be distinct")
    return eps


# -- initial data and axis-field presets ----------------------------------------

def _load_field_file(path: str, shape: tuple) -> np.ndarray:
    try:
        arr = np.load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field file {path!r}: {exc}") from None
    # strings, complex values or an .npz archive would not convert, or not
    # without loss, to the float64 field
    if not isinstance(arr, np.ndarray) or arr.dtype.kind not in "biuf":
        raise ConfigError(f"field file {path!r} does not hold a real numeric array")
    arr = arr.astype(np.float64)
    if arr.shape != shape:
        raise ConfigError(f"field file {path!r} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"field file {path!r} has non-finite entries")
    return arr


def _initial_velocity(grid: SpectralGrid, cfg: SimConfig) -> np.ndarray:
    """Physical u0 from its preset, projected and dealiased."""
    name = cfg.get("initial", "u0")
    amp = cfg.get("initial", "u0_amplitude")
    x1, x2 = grid.meshgrid()
    if name == "zero":
        phys = np.zeros((2, grid.n_modes, grid.n_modes))
    elif name == "shear":
        phys = np.stack([amp * np.sin(x2), np.zeros_like(x2)])
    elif name == "taylor_green":
        phys = amp * np.stack([np.cos(x1) * np.sin(x2), -np.sin(x1) * np.cos(x2)])
    elif name == "random_band":
        rng = np.random.default_rng([cfg.get("initial", "seed"), 0])
        phys = random_band_limited(grid, 2, max(2, grid.n_modes // 8), rng, amp)
    elif name.startswith("file:"):
        phys = _load_field_file(name[5:], (2, grid.n_modes, grid.n_modes))
    else:
        raise ConfigError(f"initial.u0: unknown preset {name!r}")
    spec = leray_project_spec(grid, grid.dealias(grid.to_spec(phys)))
    return grid.to_phys(spec)


def _initial_director(grid: SpectralGrid, cfg: SimConfig) -> np.ndarray:
    name = cfg.get("initial", "n0")
    amp = cfg.get("initial", "n0_amplitude")
    x1, _ = grid.meshgrid()
    if name == "constant_e3":
        phys = np.zeros((3, grid.n_modes, grid.n_modes))
        phys[2] = 1.0
    elif name == "circle_x1":
        phys = np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)])
    elif name == "random_unit":
        rng = np.random.default_rng([cfg.get("initial", "seed"), 1])
        phys = random_band_limited(grid, 3, max(2, grid.n_modes // 8), rng, amp)
        phys = phys + np.array([0.0, 0.0, 1.0])[:, None, None]
    elif name == "random_band":
        rng = np.random.default_rng([cfg.get("initial", "seed"), 1])
        phys = random_band_limited(grid, 3, max(2, grid.n_modes // 8), rng, amp)
    elif name.startswith("file:"):
        phys = _load_field_file(name[5:], (3, grid.n_modes, grid.n_modes))
    else:
        raise ConfigError(f"initial.n0: unknown preset {name!r}")
    if cfg.get("initial", "normalize_n0") or name == "random_unit":
        mag = np.sqrt(np.sum(phys * phys, axis=0))
        low = float(np.min(mag))
        if low < 1e-8:
            raise ConfigError(
                f"initial.n0: cannot normalize, |n0| reaches {low:.3g}")
        phys = phys / mag
    return phys


def _axis_field(grid: SpectralGrid, cfg: SimConfig) -> DirectorField:
    profile = cfg.get("h_field", "profile")
    mag = cfg.get("h_field", "magnitude")
    if profile == "constant":
        scalar = np.full((grid.n_modes, grid.n_modes), mag)
    elif profile == "single_mode":
        x1, _ = grid.meshgrid()
        scalar = mag * np.cos(x1)
    else:
        raise ConfigError(f"h_field.profile: unknown profile {profile!r}")
    return DirectorField.from_scalar_axis(grid, scalar)


@dataclass
class SimBundle:
    """Everything a run needs, built from one validated config."""

    cfg: SimConfig
    grid: SpectralGrid
    gl: GLParams
    stepper: StepperConfig
    noise: NoiseModel
    covering: CoveringSet
    stop_delta: object
    state0: SimState


def build_components(cfg: SimConfig) -> SimBundle:
    """Semantic validation plus construction of all runtime objects.

    The constructors validate their own arguments and name the config key
    in their ValueError messages, which become ConfigErrors here.
    """
    try:
        grid = SpectralGrid(cfg.get("grid", "n_modes"))
        stepcfg = StepperConfig(
            dt=cfg.get("stepper", "dt"),
            t_end=cfg.get("stepper", "t_end"),
            cfl_safety=cfg.get("stepper", "cfl_safety"),
            max_halvings=cfg.get("stepper", "max_halvings"),
        )
        gl = GLParams(epsilon=cfg.get("gl", "epsilon"))
        noise = NoiseModel(
            grid=grid,
            gamma=cfg.get("noise", "gamma"),
            mode_cutoff=cfg.get("noise", "mode_cutoff"),
            seed=cfg.get("noise", "seed"),
            path_id=cfg.get("noise", "path_id"),
            velocity_on=cfg.get("noise", "velocity_on"),
            director_on=cfg.get("noise", "director_on"),
            h=_axis_field(grid, cfg),
        )
        covering = CoveringSet(grid, cfg.get("stops", "radius"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.get("initial", "seed") < 0:
        raise ConfigError("initial.seed must be >= 0")
    delta_raw = cfg.get("stops", "delta")
    if delta_raw == "auto":
        stop_delta = "auto"
    else:
        stop_delta = _convert("stops", "delta", "float", delta_raw)
        if stop_delta <= 0.0:
            raise ConfigError(f"stops.delta must be > 0 or 'auto', got {stop_delta}")
    if cfg.get("output", "report_every") < 1:
        raise ConfigError("output.report_every must be >= 1")
    if cfg.get("output", "checkpoint_every") < 0:
        raise ConfigError("output.checkpoint_every must be >= 0")
    parse_eps_family(cfg.get("convergence", "eps_family"))
    alpha = cfg.get("convergence", "alpha")
    if not (1.0 <= alpha < 2.0):
        raise ConfigError(f"convergence.alpha must be in [1, 2), got {alpha}")
    for sec in ("convergence", "ensemble"):
        if cfg.get(sec, "n_paths") < 1:
            raise ConfigError(f"{sec}.n_paths must be >= 1")
    state0 = SimState.from_arrays(grid, _initial_velocity(grid, cfg),
                                  _initial_director(grid, cfg))
    return SimBundle(cfg=cfg, grid=grid, gl=gl, stepper=stepcfg, noise=noise,
                     covering=covering, stop_delta=stop_delta, state0=state0)


# -- checkpoints -----------------------------------------------------------------

_CKPT_MAGIC = b"NSGL"
_CKPT_VERSION = 2
# the RunTrace numbers a checkpoint stores, in header order; the trace's
# last report is a function of the state and is recomputed on resume
_CKPT_TRACE = ("t0", "e0", "int_d", "sum_u_dw", "sum_grad_cross", "sum_cross_sq",
               "sup_e", "max_n", "ls_l4", "ls_lap", "ls_grad", "ls_sup",
               "t_sigma1", "t_sigma2")
# magic, version, n_modes, step, seed, path_id, epsilon, t, then the trace
_CKPT_HEADER = struct.Struct(f"<4sIIQQQdd{len(_CKPT_TRACE)}d")


def save_checkpoint(path: str, state: SimState, trace: RunTrace, gl: GLParams,
                    noise: NoiseModel):
    """Fixed-layout binary snapshot of a state and the trace up to it.

    Header (little endian): magic "NSGL", u32 version, u32 n_modes, u64 step,
    u64 seed, u64 path_id, f64 epsilon, f64 t, then the 14 f64 trace numbers
    of ``_CKPT_TRACE``.  Payload: u as 2*N*N float64 then n as 3*N*N
    float64, C order, little endian.

    The bytes go to a temporary file beside ``path`` that then replaces it,
    so a write that fails midway leaves the previous checkpoint whole.
    """
    n = state.grid.n_modes
    header = _CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, n, state.step,
                               noise.seed, noise.path_id, gl.epsilon, state.t,
                               *(getattr(trace, name) for name in _CKPT_TRACE))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(state.u.phys, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(state.n.phys, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path: str, grid: SpectralGrid, gl: GLParams,
                    noise: NoiseModel) -> tuple[SimState, RunTrace]:
    """Read back a checkpoint that a run on ``grid``, ``gl`` and ``noise``
    can continue exactly; the mirror of :func:`save_checkpoint`.

    Returns the state and its trace, which holds the stored numbers only
    (no ``last`` report, no ``delta``): ``run_path`` completes it.

    Nothing is repaired, so a saved state loads bit for bit.  ConfigError
    refuses a file that is not a version-2 checkpoint of this grid, epsilon
    and (seed, path_id), a non-finite value (stopping times may be +inf),
    and a velocity outside the exchange drift's precondition: a divergence
    defect above 1e-10, or content outside ``grid.dealias_mask`` above 1e-12
    of its largest coefficient.  Every state an nsgl step produces meets
    both at roundoff.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path!r}: {exc}") from None
    if len(blob) < _CKPT_HEADER.size:
        raise ConfigError(f"{path}: too short to be a checkpoint")
    magic, version, n, step_idx, seed, path_id, eps, t, *stored = \
        _CKPT_HEADER.unpack_from(blob)
    if magic != _CKPT_MAGIC:
        raise ConfigError(f"{path}: not a checkpoint file (bad magic)")
    if version != _CKPT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    expected = _CKPT_HEADER.size + 5 * n * n * 8
    if len(blob) != expected:
        raise ConfigError(f"{path}: truncated checkpoint ({len(blob)} of {expected} bytes)")
    if grid.n_modes != n:
        raise ConfigError(f"{path}: grid mismatch (checkpoint N={n}, config N={grid.n_modes})")
    if eps != gl.epsilon:
        raise ConfigError(f"checkpoint epsilon {eps} != config gl.epsilon {gl.epsilon}")
    if (seed, path_id) != (noise.seed, noise.path_id):
        raise ConfigError("checkpoint noise identity (seed, path_id) does not match config")
    payload = np.frombuffer(blob, dtype="<f8", offset=_CKPT_HEADER.size).astype(np.float64)
    if not np.all(np.isfinite(payload)):
        raise ConfigError(f"{path}: non-finite value in the state")
    # a stopping time not hit yet is +inf; nothing else may be non-finite
    if not all(math.isfinite(v) or name.startswith("t_sigma") and v == math.inf
               for name, v in zip(_CKPT_TRACE, stored)):
        raise ConfigError(f"{path}: non-finite value in the run trace")
    u = VelocityField(grid, phys=payload[:2 * n * n].reshape(2, n, n))
    defect = u.divergence_defect()
    if not defect <= 1e-10:
        raise ConfigError(f"{path}: velocity divergence defect {defect:.3g} exceeds 1e-10")
    mag = np.abs(u.spec)
    top, outside = float(np.max(mag)), float(np.max(mag[:, ~grid.dealias_mask]))
    if not outside <= 1e-12 * top:
        raise ConfigError(f"{path}: velocity content outside the 2/3 band is "
                          f"{outside / top:.3g} of its largest coefficient, above 1e-12")
    state = SimState(t=t, step=step_idx, u=u,
                     n=DirectorField(grid, phys=payload[2 * n * n:].reshape(3, n, n)))
    return state, RunTrace(**dict(zip(_CKPT_TRACE, stored)))


# -- NDJSON report stream ----------------------------------------------------------

REPORT_KEYS = tuple(f.name for f in fields(EnergyReport))


def format_report(report) -> str:
    """One NDJSON object, fixed key order, floats at 17 significant digits."""
    parts = [f'"step": {report.step}']
    for key in REPORT_KEYS[1:]:
        v = getattr(report, key)
        parts.append(f'"{key}": ' + (f"{v:.17g}" if math.isfinite(v) else "null"))
    return "{" + ", ".join(parts) + "}"


# -- command line ------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the CLI contract is 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage().rstrip()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nsgl",
        description="Spectral simulator for a penalized liquid-crystal flow "
                    "on the 2D torus, with transport and rotation noise.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_run = sub.add_parser("run", help="advance one path and stream NDJSON reports")
    p_run.add_argument("-c", "--config", required=True, help="INI config file")
    p_run.add_argument("--resume", metavar="CHECKPOINT", default=None,
                       help="continue from a checkpoint instead of the configured t=0 state")

    p_conv = sub.add_parser("converge",
                            help="coupled small-epsilon family, rate fits on stdout")
    p_conv.add_argument("-c", "--config", required=True)

    p_ens = sub.add_parser("ensemble", help="independent paths, moment summary on stdout")
    p_ens.add_argument("-c", "--config", required=True)

    p_chk = sub.add_parser("check", help="operator identity self-tests")
    p_chk.add_argument("--n-modes", type=int, default=64)
    p_chk.add_argument("--samples", type=int, default=32)
    p_chk.add_argument("--seed", type=int, default=99)

    p_dump = sub.add_parser("dump-config", help="echo the validated config in canonical form")
    p_dump.add_argument("-c", "--config", required=True)
    return parser


def _cmd_run(args, bundle: SimBundle) -> int:
    cfg = bundle.cfg
    state0, trace0 = bundle.state0, None
    n_total = bundle.stepper.n_steps
    if args.resume is not None:
        state0, trace0 = load_checkpoint(args.resume, bundle.grid, bundle.gl, bundle.noise)
        # the run continues at t + k dt for step + k, so the checkpoint's own
        # clock must be step * dt of this config; NaN fails the comparison
        step_idx, t, dt = state0.step, state0.t, bundle.stepper.dt
        if step_idx > n_total:
            raise ConfigError(
                f"checkpoint step {step_idx} is past the configured {n_total} steps")
        if not abs(t - step_idx * dt) <= 1e-9 * max(1.0, abs(t)):
            raise ConfigError(
                f"checkpoint t = {t:.17g} at step {step_idx} does not fit stepper.dt = {dt}")
    out_path = cfg.get("output", "ndjson_path")
    every = cfg.get("output", "report_every")
    ck_path = cfg.get("output", "checkpoint_path")
    ck_every = cfg.get("output", "checkpoint_every")
    sink = sys.stdout if out_path == "-" else open(out_path, "w", encoding="utf-8")

    def on_report(state, trace):
        report = trace.last
        if report.step % every == 0 or report.step == n_total:
            sink.write(format_report(report) + "\n")
        # only states a step produced are saved, on the clock and at the end:
        # the start state's bytes are the config's or already on disk
        if ck_path and report.step > state0.step and (
                report.step == n_total or ck_every > 0 and report.step % ck_every == 0):
            save_checkpoint(ck_path, state, trace, bundle.gl, bundle.noise)

    try:
        trace = run_path(state0, bundle.stepper, bundle.gl, bundle.noise,
                         covering=bundle.covering, stop_delta=bundle.stop_delta,
                         on_report=on_report, trace=trace0)
    finally:
        if sink is not sys.stdout:
            sink.close()
    lhs, rhs, ratio = trace.ls_ratio(bundle.covering.radius)
    last = trace.last
    lines = [
        f"steps = {last.step}  t = {last.t:.17g}",
        f"energy = {trace.e0:.17g} -> {last.energy_E:.17g}",
        f"energy balance residual = {trace.residual:.6g}",
        f"sigma1 = {trace.t_sigma1:.6g}  sigma2 = {trace.t_sigma2:.6g}  "
        f"sigma = {trace.sigma(bundle.stepper.t_end):.6g}  (delta = {trace.delta:.6g})",
        f"local smallness ratio = {ratio:.6g}  (lhs = {lhs:.6g}, rhs = {rhs:.6g})",
        f"max |n| = {trace.max_n:.17g}",
    ]
    print("\n".join(lines), file=sys.stderr)
    return 0


def _check_path_ids(noise: NoiseModel, section: str, n_paths: int):
    """Paths use the stream keys path_id .. path_id + n_paths - 1."""
    if noise.path_id + n_paths > 2**64:
        raise ConfigError(f"noise.path_id + {section}.n_paths exceeds the 2**64 stream keys")


def _cmd_converge(args, bundle: SimBundle) -> int:
    sec = bundle.cfg.section("convergence")
    _check_path_ids(bundle.noise, "convergence", sec["n_paths"])
    eps_family = parse_eps_family(sec["eps_family"])
    out_dir = sec["output_dir"]
    sinks = {}
    on_member = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

        def on_member(p, eps, report):
            key = (p, eps)
            if key not in sinks:
                name = f"path{p:03d}_eps{eps:.17g}.ndjson"
                sinks[key] = open(os.path.join(out_dir, name), "w", encoding="utf-8")
            sinks[key].write(format_report(report) + "\n")

    try:
        report = run_coupled_family(
            bundle.state0, bundle.stepper, eps_family, bundle.noise,
            n_paths=sec["n_paths"], alpha=sec["alpha"], covering=bundle.covering,
            stop_delta=bundle.stop_delta, on_member_report=on_member)
    finally:
        for fh in sinks.values():
            fh.close()
    sys.stdout.write(report.to_text())
    return 0


def _cmd_ensemble(args, bundle: SimBundle) -> int:
    n_paths = bundle.cfg.get("ensemble", "n_paths")
    _check_path_ids(bundle.noise, "ensemble", n_paths)
    report = run_ensemble(bundle.state0, bundle.stepper, bundle.gl, bundle.noise,
                          n_paths=n_paths)
    sys.stdout.write(report.to_text())
    return 0


def _cmd_check(args) -> int:
    try:
        results = run_identity_checks(n_modes=args.n_modes, samples=args.samples,
                                      seed=args.seed)
    except ValueError as exc:
        raise ConfigError(f"check: {exc}") from None
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  max_residual = {r.residual:.3e}  "
              f"tol = {r.tol:.1e}")
    n_bad = sum(not r.passed for r in results)
    print(f"{len(results) - n_bad} of {len(results)} identity checks passed")
    return 0 if n_bad == 0 else 2


def _cmd_dump_config(args, bundle: SimBundle) -> int:
    sys.stdout.write(dump_config(bundle.cfg))
    return 0


# the commands that start from a validated config
_CONFIG_COMMANDS = {
    "run": _cmd_run,
    "converge": _cmd_converge,
    "ensemble": _cmd_ensemble,
    "dump-config": _cmd_dump_config,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "check":
            return _cmd_check(args)
        # called through the module globals: perfbench/tracer.py times both
        # by rebinding nsgl.io_cli.load_config and build_components
        bundle = build_components(load_config(args.config))
        return _CONFIG_COMMANDS[args.command](args, bundle)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, CflError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
