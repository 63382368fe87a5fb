"""The benchmark's workloads: INI text from a seed, path-step counts, and
checks on the outputs of one CLI call.

Every workload has both noises on and ``h_field.profile = single_mode``.
The seed sets ``noise.seed`` and ``initial.seed``; nothing else varies, so
the same seed gives the same inputs.  Output paths in the INI are relative:
a call runs in its own directory and leaves its files there.

The checks hold for any seed and tolerate roundoff-level drift of the
values: they test exit codes, row counts, finiteness and the physical
bounds of acceptance gates 4, 5 and 6, never exact digits.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from stats import path_steps

# Gate 5: |n0| = 1 keeps max |n| <= 1 + 1e-6.
MAX_ABS_N = 1.0 + 1e-6
# Gate 4 bounds |mean Ito balance| by 3 standard errors.  Here only the
# upper side is checked: the single scalar rotation noise enters each path's
# balance through eta_T^2, so the per-path values are skewed to the right.
# A sample of 16 paths that misses the rare large value has a negative mean
# and a small standard error, and the two-sided bound then fails for about
# one seed in ten with nothing wrong (3 of 30 seeds fell below -4 SE, the
# lowest at -5.2); the upper side stayed below +1.1 SE on all 30.
BALANCE_SE = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # nsgl subcommand
    why: str
    ini: dict         # section -> key -> value, seed keys filled in by ini_text
    n_paths: int = 1
    n_members: int = 1

    @property
    def n_steps(self) -> int:
        st = self.ini["stepper"]
        return int(round(float(st["t_end"]) / float(st["dt"])))

    @property
    def path_steps(self) -> int:
        return path_steps(self.n_steps, self.n_paths, self.n_members)

    def ini_text(self, seed: int) -> str:
        sections = {sec: dict(keys) for sec, keys in self.ini.items()}
        sections["noise"]["seed"] = seed
        sections["initial"]["seed"] = seed
        return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                       + "\n" for sec, keys in sections.items())

    def check(self, call_dir: Path, stdout: str) -> list[str]:
        """Problems with one call's outputs; empty when they pass."""
        return _CHECKS[self.name](self, call_dir, stdout)

    def outputs(self, call_dir: Path, stdout: str) -> list[bytes]:
        """The call's result bytes, for comparing two calls at one seed."""
        files = sorted(p for p in call_dir.rglob("*")
                       if p.is_file() and p.suffix in (".ndjson", ".ckpt"))
        return [stdout.encode()] + [p.read_bytes() for p in files]


FAMILY_EPS = (0.4, 0.2, 0.1, 0.05)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ensemble-n32",
            command="ensemble",
            why="N=32, 16 independent paths, summary only: per-step Python overhead "
                "dominates and nothing streams; the workload for path batching",
            ini={
                "grid": {"n_modes": 32},
                "stepper": {"dt": 1e-3, "t_end": 0.08},
                "gl": {"epsilon": 0.5},
                "noise": {"gamma": 3.0},
                "h_field": {"profile": "single_mode", "magnitude": 1.0},
                "initial": {"u0": "random_band", "u0_amplitude": 0.3,
                            "n0": "random_unit", "n0_amplitude": 0.2},
                "ensemble": {"n_paths": 16},
            },
            n_paths=16,
        ),
        Workload(
            name="family-n64",
            command="converge",
            why="N=64 coupled eps family, 4 members x 2 paths, every member streams "
                "NDJSON, delta=1e9 so distances accumulate: the only family-loop workload",
            ini={
                "grid": {"n_modes": 64},
                "stepper": {"dt": 1e-3, "t_end": 0.05},
                "noise": {"gamma": 3.0},
                "h_field": {"profile": "single_mode", "magnitude": 0.5},
                "initial": {"u0": "taylor_green", "u0_amplitude": 0.5,
                            "n0": "circle_x1"},
                "stops": {"delta": 1e9},
                "convergence": {"eps_family": ", ".join(map(str, FAMILY_EPS)),
                                "alpha": 1.0, "n_paths": 2, "output_dir": "family"},
            },
            n_paths=2,
            n_members=len(FAMILY_EPS),
        ),
        Workload(
            name="run-n128",
            command="run",
            why="one N=128 path, NDJSON every step, checkpoint every 20 steps: bound "
                "by FFTs and the covering matmul, with BLAS threads at the default",
            ini={
                "grid": {"n_modes": 128},
                "stepper": {"dt": 1e-3, "t_end": 0.1},
                "gl": {"epsilon": 0.1},
                "noise": {"gamma": 3.0},
                "h_field": {"profile": "single_mode", "magnitude": 1.0},
                "initial": {"u0": "random_band", "n0": "random_unit"},
                "output": {"ndjson_path": "run.ndjson", "report_every": 1,
                           "checkpoint_path": "run.ckpt", "checkpoint_every": 20},
            },
        ),
    )
}


# -- output checks ----------------------------------------------------------------

def _read_rows(path: Path, n_rows: int, problems: list) -> list[dict]:
    """NDJSON rows of one stream; every value must be a finite number."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        problems.append(f"{path.name}: {exc}")
        return []
    if len(lines) != n_rows:
        problems.append(f"{path.name}: {len(lines)} rows, expected {n_rows}")
    rows = []
    for i, line in enumerate(lines):
        try:
            row = json.loads(line)
        except ValueError:
            problems.append(f"{path.name} row {i}: not JSON")
            continue
        bad = [k for k, v in row.items()
               if isinstance(v, bool) or not isinstance(v, (int, float))
               or not math.isfinite(v)]
        if bad:
            problems.append(f"{path.name} row {i}: non-finite {', '.join(bad)}")
        if row.get("step") != i:
            problems.append(f"{path.name} row {i}: step {row.get('step')}")
        rows.append(row)
    return rows


def _numbers(text: str) -> list[float]:
    return [float(tok) for tok in re.split(r",\s*", text.strip()) if tok]


def _strictly_decreasing(values) -> bool:
    return all(a > b for a, b in zip(values, values[1:])) and values[-1] > 0.0


def _check_run(w: Workload, call_dir: Path, stdout: str) -> list[str]:
    problems: list[str] = []
    rows = _read_rows(call_dir / "run.ndjson", w.n_steps + 1, problems)
    peak = max((r.get("max_abs_n", math.inf) for r in rows), default=math.inf)
    if not peak <= MAX_ABS_N:
        problems.append(f"max |n| = {peak!r} exceeds {MAX_ABS_N!r}")
    ckpt = call_dir / "run.ckpt"
    if not ckpt.is_file() or ckpt.stat().st_size == 0:
        problems.append("no checkpoint written")
    return problems


def _check_family(w: Workload, call_dir: Path, stdout: str) -> list[str]:
    problems: list[str] = []
    streams = sorted((call_dir / "family").glob("*.ndjson"))
    if len(streams) != w.n_paths * w.n_members:
        problems.append(f"{len(streams)} member streams, expected "
                        f"{w.n_paths * w.n_members}")
    for path in streams:
        _read_rows(path, w.n_steps + 1, problems)

    tables: dict[float, dict[str, list[float]]] = {}
    eps = None
    for line in stdout.splitlines():
        head = re.fullmatch(r"\[eps = (\S+)\]", line.strip())
        if head:
            eps = float(head.group(1))
            tables[eps] = {}
        elif eps is not None and line.startswith("  ") and " = " in line:
            label, _, values = line.strip().partition(" = ")
            try:
                tables[eps][label] = _numbers(values)
            except ValueError:
                problems.append(f"eps {eps} {label}: unparsable values")
    eps_desc = sorted(FAMILY_EPS, reverse=True)
    if sorted(tables) != sorted(FAMILY_EPS):
        return problems + [f"report lists eps {sorted(tables)}, expected {eps_desc}"]
    for eps, table in tables.items():
        for label in ("sup_dist", "defect_sup"):
            vals = table.get(label, [])
            if len(vals) != w.n_paths or not all(map(math.isfinite, vals)):
                problems.append(f"eps {eps} {label}: {vals}")
    if problems:
        return problems
    for p in range(w.n_paths):
        sups = [tables[e]["sup_dist"][p] for e in eps_desc[:-1]]
        defects = [tables[e]["defect_sup"][p] for e in eps_desc]
        if not _strictly_decreasing(sups):
            problems.append(f"path {p}: sup_dist not strictly monotone in eps: {sups}")
        if not _strictly_decreasing(defects):
            problems.append(f"path {p}: defect_sup not strictly monotone in eps: {defects}")
    return problems


def _check_ensemble(w: Workload, call_dir: Path, stdout: str) -> list[str]:
    paths = re.search(r"^paths = (\d+)", stdout, re.M)
    if not paths or int(paths.group(1)) != w.n_paths:
        return [f"report does not list {w.n_paths} paths"]
    bal = re.search(r"^balance mean = (\S+)\s+se = (\S+)$", stdout, re.M)
    peak = re.search(r"^max \|n\| over ensemble = (\S+)$", stdout, re.M)
    if not bal or not peak:
        return ["report lacks the balance or max |n| line"]
    mean, se, max_n = float(bal.group(1)), float(bal.group(2)), float(peak.group(1))
    if not all(map(math.isfinite, (mean, se, max_n))):
        return [f"non-finite summary: mean {mean}, se {se}, max |n| {max_n}"]
    if not mean <= BALANCE_SE * se:
        return [f"balance mean {mean:.3g} > {BALANCE_SE:g} SE = {BALANCE_SE * se:.3g}"]
    return []


_CHECKS = {
    "ensemble-n32": _check_ensemble,
    "family-n64": _check_family,
    "run-n128": _check_run,
}
