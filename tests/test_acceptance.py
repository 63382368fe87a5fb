"""End-to-end gate: eight numbered checks with a terminal scoreboard.

Each test prints exactly one line, bypassing pytest capture, of the form

    [gate 3/8] deterministic energy balance, order 2: PASS (rel 7.7e-05, ...)

so a plain ``pytest tests/test_acceptance.py`` shows the whole checklist
at a glance.  The checks and their tolerances are documented in README.md;
wall-clock budgets are part of the checks that carry one.  The relaxation
family run is shared between gates 6 and 7 through a module fixture.
"""

import time

import numpy as np
import pytest

from nsgl.checks import _rk4_logistic, run_identity_checks
from nsgl.diagnostics import CoveringSet
from nsgl.experiments import run_coupled_family, run_ensemble, run_path
from nsgl.grid import DirectorField, SpectralGrid, VelocityField, random_band_limited
from nsgl.io_cli import main
from nsgl.noise import NoiseModel
from nsgl.operators import GLParams, leray_project_spec
from nsgl.stepper import (
    SimState,
    StepperConfig,
    diffuse_spec,
    gl_reaction_phys,
    rotate_phys,
)

EPS_FAMILY = (0.4, 0.2, 0.1, 0.05)


def _announce(capsys, num, label, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[gate {num}/8] {label}: {verdict} ({detail})", flush=True)


def _quiet_noise(grid):
    return NoiseModel(grid, velocity_on=False, director_on=False)


# -- gate 1 -----------------------------------------------------------------------


def test_identity_residual_suite(capsys):
    """Every structural identity holds to 1e-8 relative on random fields."""
    t0 = time.monotonic()
    results = run_identity_checks(n_modes=64, samples=32, seed=99)
    elapsed = time.monotonic() - t0
    worst = max(results, key=lambda r: r.residual / r.tol)
    ok = all(r.passed for r in results) and elapsed < 30.0
    _announce(capsys, 1, "identity residual suite", ok,
              f"{sum(r.passed for r in results)}/{len(results)} passed, "
              f"worst {worst.name} {worst.residual:.2e} vs {worst.tol:.0e}, "
              f"{elapsed:.1f}s of 30s")
    assert ok


# -- gate 2 -----------------------------------------------------------------------


def test_exact_substep_kernels(capsys):
    g = SpectralGrid(32)
    x1, x2 = g.meshgrid()

    # rotation: |n| is pointwise invariant for any angle and spatially varying axis
    rng = np.random.default_rng(5)
    n_phys = random_band_limited(g, 3, 6, rng)
    n_phys[2] += 1.0
    axis = np.stack([np.sin(x2), np.cos(x1), 1.0 + 0.5 * np.sin(x1 + x2)])
    mag = np.sqrt(np.sum(axis * axis, axis=0))
    unit = axis / mag
    mag_in = np.sqrt(np.sum(n_phys * n_phys, axis=0))
    rot_err = 0.0
    for d_eta in (0.37, -1.9, 3.2):
        out = rotate_phys(n_phys, unit, 0.8 + 0.3 * np.cos(x2), d_eta)
        mag_out = np.sqrt(np.sum(out * out, axis=0))
        rot_err = max(rot_err, float(np.max(np.abs(mag_out - mag_in))))
    out = rotate_phys(n_phys, unit, mag, 0.8)  # angle and axis both from the field
    rot_err = max(rot_err, float(np.max(np.abs(
        np.sqrt(np.sum(out ** 2, axis=0)) - mag_in))))

    # quartic-well map against a 16384-substep RK4 of the squared magnitude,
    # stiffness ratio dt/eps^2 swept over [0, 5], magnitudes through 0 and past 1
    eps = 0.7
    rho0 = np.array([0.0, 0.05, 0.5, 0.9, 1.0, 1.3])
    direction = np.array([0.36, 0.48, 0.8])
    n0 = direction[:, None] * rho0[None, :]
    ratios = np.linspace(0.0, 5.0, 11)
    y_ref = _rk4_logistic(rho0[None, :] ** 2, 2.0 * ratios[:, None], 16384)
    gl_err = dir_err = 0.0
    for i, r in enumerate(ratios):
        out = gl_reaction_phys(n0, r * eps**2, eps)
        mag_out = np.sqrt(np.sum(out * out, axis=0))
        gl_err = max(gl_err, float(np.max(np.abs(mag_out - np.sqrt(y_ref[i])))))
        live = rho0 > 0.0
        dir_err = max(dir_err, float(np.max(np.abs(
            out[:, live] / mag_out[live] - direction[:, None]))))

    # diffusion: hand-built modes decay by exp(-|k|^2 dt), checked pointwise
    dt = 0.37
    u_phys = np.stack([-5.0 * np.sin(3 * x1 + 5 * x2),
                       3.0 * np.sin(3 * x1 + 5 * x2) - 7.0 * np.cos(7 * x1)])
    n_modes_phys = np.stack([0.9 * np.cos(2 * x2),
                             0.7 * np.sin(4 * x1 - 6 * x2),
                             np.full_like(x1, 0.25)])
    u_out = g.to_phys(diffuse_spec(g, g.to_spec(u_phys), dt))
    n_out = g.to_phys(diffuse_spec(g, g.to_spec(n_modes_phys), dt))
    u_ref = np.stack([
        -5.0 * np.exp(-34 * dt) * np.sin(3 * x1 + 5 * x2),
        3.0 * np.exp(-34 * dt) * np.sin(3 * x1 + 5 * x2)
        - 7.0 * np.exp(-49 * dt) * np.cos(7 * x1)])
    n_ref = np.stack([0.9 * np.exp(-4 * dt) * np.cos(2 * x2),
                      0.7 * np.exp(-52 * dt) * np.sin(4 * x1 - 6 * x2),
                      np.full_like(x1, 0.25)])
    diff_err = max(float(np.max(np.abs(u_out - u_ref))),
                   float(np.max(np.abs(n_out - n_ref))))
    # broadband wiring: every retained mode gets exactly its own factor
    fac = np.exp(-g.k2 * dt)
    for n_comp in (2, 3):
        rnd = g.to_spec(random_band_limited(g, n_comp, 9, rng))
        diff_err = max(diff_err, float(np.max(np.abs(diffuse_spec(g, rnd, dt) - rnd * fac))))

    ok = rot_err < 1e-13 and gl_err < 1e-10 and dir_err < 1e-12 and diff_err < 1e-13
    _announce(capsys, 2, "exact substep kernels", ok,
              f"rotation {rot_err:.1e} vs 1e-13, quartic map {gl_err:.1e} vs 1e-10, "
              f"diffusion {diff_err:.1e} vs 1e-13")
    assert ok


# -- gate 3 -----------------------------------------------------------------------


def test_energy_balance_is_second_order(capsys):
    """Noise off, the energy identity residual at T shrinks like dt^2.

    Band-limited data keeps the balance free of the dealias floor that
    pointwise normalization would inject; the dominant residual term is
    the trapezoid quadrature of the dissipation integral, which halves
    by 4 per dt halving.
    """
    g = SpectralGrid(64)
    rng = np.random.default_rng(42)
    u_raw = 0.3 * random_band_limited(g, 2, 3, rng)
    u_spec = g.dealias(leray_project_spec(g, g.to_spec(u_raw)))
    n_phys = 0.25 * random_band_limited(g, 3, 3, rng)
    n_phys[2] += 1.0
    noise = _quiet_noise(g)
    gl = GLParams(epsilon=0.5)

    t0 = time.monotonic()
    rels = []
    for dt in (1e-3, 5e-4, 2.5e-4, 1.25e-4):
        state = SimState(t=0.0, step=0, u=VelocityField(g, spec=u_spec),
                         n=DirectorField(g, phys=n_phys))
        trace = run_path(state, StepperConfig(dt=dt, t_end=0.5), gl, noise)
        rels.append(abs(trace.residual) / trace.e0)
    elapsed = time.monotonic() - t0
    ratios = [rels[i] / rels[i + 1] for i in range(3)]

    ok = rels[0] < 1e-4 and all(r >= 3.5 for r in ratios) and elapsed < 300.0
    _announce(capsys, 3, "deterministic energy balance, order 2", ok,
              f"rel {rels[0]:.2e} vs 1e-4, halving ratios "
              + "/".join(f"{r:.2f}" for r in ratios)
              + f" vs 3.5, {elapsed:.0f}s of 300s")
    assert ok


# -- gate 4 -----------------------------------------------------------------------


def test_stochastic_mean_energy_balance(capsys):
    """Over 64 paths the Ito balance has mean zero within 3 MC standard errors."""
    g = SpectralGrid(32)
    rng = np.random.default_rng(314)
    u_raw = 0.3 * random_band_limited(g, 2, 3, rng)
    u_spec = g.dealias(leray_project_spec(g, g.to_spec(u_raw)))
    n_phys = 0.2 * random_band_limited(g, 3, 3, rng)
    n_phys[2] += 1.0
    state = SimState(t=0.0, step=0, u=VelocityField(g, spec=u_spec),
                     n=DirectorField(g, phys=n_phys))
    x1, _ = g.meshgrid()
    h = DirectorField.from_scalar_axis(g, np.cos(x1))
    noise = NoiseModel(g, gamma=3.0, seed=2026, h=h)

    t0 = time.monotonic()
    rep = run_ensemble(state, StepperConfig(dt=1e-3, t_end=0.25),
                       GLParams(epsilon=0.5), noise, n_paths=64)
    elapsed = time.monotonic() - t0

    bound = 3.0 * rep.balance_se
    ok = abs(rep.balance_mean) <= bound and elapsed < 900.0
    _announce(capsys, 4, "stochastic mean energy balance", ok,
              f"mean {rep.balance_mean:+.3e} vs 3 SE = {bound:.3e}, "
              f"64 paths, {elapsed:.0f}s of 900s")
    assert ok


# -- gate 5 -----------------------------------------------------------------------


def test_director_max_principle_matrix(capsys):
    """|n0| <= 1 keeps max |n| <= 1 + 1e-6 for every epsilon, noise on and off."""
    g = SpectralGrid(32)
    x1, x2 = g.meshgrid()
    u_phys = 0.5 * np.stack([np.cos(x1) * np.sin(x2), -np.sin(x1) * np.cos(x2)])
    n_phys = np.stack([0.9 * np.cos(x1), 0.9 * np.sin(x1), np.full_like(x1, 0.3)])
    assert float(np.max(np.sum(n_phys ** 2, axis=0))) <= 1.0  # fixture sanity
    h = DirectorField.from_scalar_axis(g, np.cos(x1))
    cfg = StepperConfig(dt=1e-3, t_end=0.1)

    worst = -np.inf
    for eps in EPS_FAMILY:
        for noise_on in (False, True):
            noise = NoiseModel(g, gamma=3.0, seed=77, h=h,
                               velocity_on=noise_on, director_on=noise_on)
            trace = run_path(SimState.from_arrays(g, u_phys, n_phys), cfg,
                             GLParams(epsilon=eps), noise)
            worst = max(worst, trace.max_n - 1.0)

    ok = worst <= 1e-6
    _announce(capsys, 5, "director maximum principle", ok,
              f"max |n| - 1 = {worst:+.1e} vs 1e-6 over "
              f"{len(EPS_FAMILY)} epsilons x noise on/off")
    assert ok


# -- gates 6 and 7 ------------------------------------------------------------------


def _run_relaxation_family():
    """Coupled family at N = 64, shared per-path noise, explicit large stop delta.

    The distance accumulation window is capped at the smallest stop time
    across members, and the automatic concentration threshold (5% of the
    initial energy) trips at t = 0 for fields this spread out, a radius
    pi/4 ball already holds more than that share.  The convergence
    statement needs the full horizon, so the stop is disarmed explicitly.
    """
    g = SpectralGrid(64)
    x1, x2 = g.meshgrid()
    u_phys = 0.5 * np.stack([np.cos(x1) * np.sin(x2), -np.sin(x1) * np.cos(x2)])
    n_phys = np.stack([np.cos(x1), np.sin(x1), np.zeros_like(x1)])
    state = SimState.from_arrays(g, u_phys, n_phys)
    h = DirectorField.from_scalar_axis(g, 0.5 * np.cos(x1))
    noise = NoiseModel(g, gamma=3.0, seed=4242, h=h)
    covering = CoveringSet(g, radius=np.pi / 4)
    return run_coupled_family(state, StepperConfig(dt=1e-3, t_end=0.25),
                              EPS_FAMILY, noise, n_paths=8, alpha=1.0,
                              covering=covering, stop_delta=1e9)


@pytest.fixture(scope="module")
def family_run():
    t0 = time.monotonic()
    rep = _run_relaxation_family()
    return rep, time.monotonic() - t0


def test_relaxation_family_distances_shrink(family_run, capsys):
    """Per path, distance to the smallest-epsilon member and the modulus defect

    are strictly monotone in epsilon; the defect rate is recorded, not asserted."""
    rep, elapsed = family_run
    eps_desc = sorted(rep.eps_family, reverse=True)
    non_ref = [e for e in eps_desc if e != rep.eps_ref]

    sup_ok = defect_ok = True
    for p in range(rep.n_paths):
        sups = [rep.members[e].sup_dist[p] for e in non_ref]
        defects = [rep.members[e].defect_sup[p] for e in eps_desc]
        sup_ok &= all(a > b for a, b in zip(sups, sups[1:])) and sups[-1] > 0.0
        defect_ok &= (all(a > b for a, b in zip(defects, defects[1:]))
                      and defects[-1] > 0.0)

    rate = rep.rate_defect
    ok = sup_ok and defect_ok and rate is not None and elapsed < 1800.0
    _announce(capsys, 6, "relaxation family convergence", ok,
              f"sup distance monotone {sup_ok}, defect monotone {defect_ok} "
              f"on {rep.n_paths} paths, defect rate "
              + (f"{rate.rate:.2f} +- {rate.half_width:.2f}" if rate else "n/a")
              + f", {elapsed:.0f}s of 1800s")
    assert ok


def test_covering_exhaustive_and_stop_times(family_run, capsys):
    g = SpectralGrid(64)
    bound = 22.5  # frozen: worst n_centers * R^2 over the three radii is 22.2
    cover_ok = True
    prods = []
    for radius in (np.pi / 8, np.pi / 4, np.pi / 2):
        cov = CoveringSet(g, radius=radius)
        prods.append(cov.n_centers * radius**2)
        cover_ok &= cov.coverage_defect() <= radius and prods[-1] <= bound

    rep, _ = family_run
    fired = {e: [t for t in rep.members[e].sigma2 if np.isfinite(t)]
             for e in rep.eps_family if e <= 0.1}
    triggered = {e: ts for e, ts in fired.items() if ts}
    if not triggered:
        stop_ok = True
        stop_note = "modulus stop never fired for eps <= 0.1"
    else:
        # fallback: the recorded trigger times must at least be reproducible
        rerun = _run_relaxation_family()
        stop_ok = all(np.array_equal(rep.members[e].sigma2,
                                     rerun.members[e].sigma2)
                      for e in triggered)
        stop_note = ("modulus stop fired at " +
                     "; ".join(f"eps={e}: {ts}" for e, ts in triggered.items())
                     + f", bitwise reproducible {stop_ok}")

    ok = cover_ok and stop_ok
    _announce(capsys, 7, "covering and stop times", ok,
              f"coverage exhaustive at 3 radii, n_centers * R^2 max "
              f"{max(prods):.1f} vs {bound}, {stop_note}")
    assert ok


# -- gate 8 -----------------------------------------------------------------------


GATE_RUN = """
[grid]
n_modes = 32
[stepper]
dt = 2e-3
t_end = {t}
[gl]
epsilon = 0.1
[noise]
seed = 11
[initial]
u0 = random_band
u0_amplitude = 0.5
n0 = random_unit
n0_amplitude = 0.3
seed = 13
[h_field]
profile = single_mode
[output]
ndjson_path = {out}
{extra}"""


def test_bitwise_reproducibility_with_resume(tmp_path, capsys):
    """Same config and seed give byte-identical streams, and a checkpointed

    prefix plus a resumed suffix splices byte-exactly into the one-shot run
    and prints the one-shot run's stderr summary byte for byte."""
    def config(name, **kw):
        p = tmp_path / name
        p.write_text(GATE_RUN.format(**kw), encoding="utf-8")
        return str(p)

    full_a = tmp_path / "a.ndjson"
    full_b = tmp_path / "b.ndjson"
    tail = tmp_path / "tail.ndjson"
    ck = tmp_path / "mid.ckpt"

    assert main(["run", "-c", config("a.ini", t=0.05, out=full_a, extra="")]) == 0
    one_shot = capsys.readouterr().err
    assert main(["run", "-c", config("b.ini", t=0.05, out=full_b, extra="")]) == 0
    twin_ok = full_a.read_bytes() == full_b.read_bytes()

    assert main(["run", "-c", config("pre.ini", t=0.024, out="-",
                                     extra=f"checkpoint_path = {ck}")]) == 0
    capsys.readouterr()
    assert main(["run", "-c", config("res.ini", t=0.05, out=tail, extra=""),
                 "--resume", str(ck)]) == 0
    summary_ok = capsys.readouterr().err == one_shot
    full_lines = full_a.read_text(encoding="utf-8").splitlines(keepends=True)
    tail_lines = tail.read_text(encoding="utf-8").splitlines(keepends=True)
    splice_ok = tail_lines == full_lines[12:]  # prefix covered steps 0..12

    ok = twin_ok and splice_ok and summary_ok
    _announce(capsys, 8, "bitwise reproducibility", ok,
              f"twin runs byte-equal {twin_ok}, resume splice byte-equal "
              f"{splice_ok}, resumed summary byte-equal {summary_ok}, "
              f"25 steps at N = 32 with both noises")
    assert ok
