"""sha256 digests of every output of five fixed-seed ``nsgl`` calls.

    python3 tools/stream_digest.py [--workloads | --write] SRC

SRC is the ``src`` directory of a checkout (the one holding the ``nsgl``
package).  In a temporary directory the script runs, through
``python3 -m nsgl`` with ``PYTHONPATH=SRC``, either the five small calls
below or, with ``--workloads``, the benchmark's three workloads at seed 301
(their INIs come from ``perfbench/workloads.py`` beside this script), which
write 16 files: ``ensemble-n32`` its stdout and stderr, ``family-n64`` those
and 8 member streams, ``run-n128`` those, its NDJSON and its checkpoint.
The small calls are:

* ``run`` at N = 16 with ``h = cos x1``, writing NDJSON and a checkpoint
  every 5 steps, with ``stops.radius = pi/8``: the floor dx at N = 16,
  12^2 = 144 covering centers;
* ``ensemble`` at N = 16 with a constant h, 4 paths;
* ``converge`` at N = 16 with ``h = cos x1``, 3 members on 2 paths, a CFL
  safety small enough that every step is halved once, member streams, and
  ``stops.radius = pi/2``, whose covering has full and wrapping arcs;
* ``resume``: the ``run`` config run to its midpoint, t = 0.025, then
  continued to its end with ``run --resume``.  Its NDJSON, checkpoint,
  stdout and stderr are the continued run's, so a change to the checkpoint
  load path shows here;
* ``check --n-modes 32 --samples 4``: the identity self-checks, whose
  residuals run through the Leray projection, the transforms and the
  kernels the step runs: the exchange drift ``coupling_drift_spec``, the
  reaction map and the rotation.

It prints one ``sha256  name`` line for the stdout and stderr of each call
and for each NDJSON and checkpoint file, in a fixed order, then exits with
the largest exit code of the calls.  Two checkouts whose lines are equal
wrote the same bytes, so a diff of the two outputs shows whether a change
moved any output.  The small calls take a few seconds, the workloads about
ten.

``--write`` runs both sets and writes their 36 lines to
``tests/data/stream_digest.txt``, the golden file the tier-1 digest tests
compare against, after a header that names the environment the digests
hold for: the numpy and Python versions, the machine, and the CPU features
numpy dispatches its SIMD loops on (their last bits may differ from one
dispatch target to another).  Elsewhere those tests skip, naming what
differs.  A change that moves output bytes rewrites the file, and its diff
shows which outputs moved.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
GOLDEN = ROOT / "tests" / "data" / "stream_digest.txt"
WORKLOAD_SEED = 301

_SEEDS = """\
[noise]
seed = 301
mode_cutoff = 4
"""

_RUN_INI = """\
[grid]
n_modes = 16
[stepper]
dt = 5e-3
t_end = 0.05
[gl]
epsilon = 0.3
[h_field]
profile = single_mode
magnitude = 1.0
[initial]
seed = 301
u0 = random_band
u0_amplitude = 0.3
n0 = random_unit
[stops]
radius = 0.39269908169872414
[output]
ndjson_path = run.ndjson
checkpoint_path = run.ckpt
checkpoint_every = 5
""" + _SEEDS


def _call(name: str, command: str, ini: str) -> tuple:
    """One ``nsgl COMMAND -c cfg.ini`` call."""
    return name, {"cfg.ini": ini}, [[command, "-c", "cfg.ini"]]


# (name, INI files, nsgl argvs): the argvs run in order in one directory,
# and the outputs digested are the last one's and the files left behind
CALLS = (
    _call("run", "run", _RUN_INI),
    _call("ensemble", "ensemble", """\
[grid]
n_modes = 16
[stepper]
dt = 5e-3
t_end = 0.04
[gl]
epsilon = 0.5
[h_field]
profile = constant
magnitude = 0.7
[initial]
seed = 301
u0 = random_band
u0_amplitude = 0.3
n0 = random_unit
[ensemble]
n_paths = 4
""" + _SEEDS),
    _call("converge", "converge", """\
[grid]
n_modes = 16
[stepper]
dt = 5e-3
t_end = 0.03
cfl_safety = 0.005
[h_field]
profile = single_mode
magnitude = 0.5
[initial]
u0 = taylor_green
n0 = circle_x1
[stops]
delta = 1e9
radius = 1.5707963267948966
[convergence]
eps_family = 0.4, 0.2, 0.1
n_paths = 2
output_dir = family
""" + _SEEDS),
    ("resume",
     {"half.ini": _RUN_INI.replace("t_end = 0.05", "t_end = 0.025"), "cfg.ini": _RUN_INI},
     [["run", "-c", "half.ini"], ["run", "-c", "cfg.ini", "--resume", "run.ckpt"]]),
    ("check", {}, [["check", "--n-modes", "32", "--samples", "4"]]),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def workload_calls() -> list:
    """The benchmark's workloads as calls, at ``WORKLOAD_SEED``."""
    sys.path.insert(0, str(PERFBENCH))  # workloads.py imports its sibling stats.py
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    return [_call(w.name, w.command, w.ini_text(WORKLOAD_SEED))
            for w in workloads.WORKLOADS.values()]


def digest(src: Path, calls=CALLS) -> tuple[list[str], int]:
    """The digest lines of ``calls`` against ``src``, and their worst exit
    code."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    lines, worst = [], 0
    with tempfile.TemporaryDirectory(prefix="nsgl-digest-") as tmp:
        for name, inis, argvs in calls:
            work = Path(tmp) / name
            work.mkdir()
            for file, ini in inis.items():
                (work / file).write_text(ini, encoding="utf-8")
            for argv in argvs:
                proc = subprocess.run([sys.executable, "-m", "nsgl", *argv],
                                      cwd=work, env=env, capture_output=True)
                worst = max(worst, proc.returncode)
            lines.append(f"{_sha(proc.stdout)}  {name}.stdout")
            lines.append(f"{_sha(proc.stderr)}  {name}.stderr")
            for path in sorted(p for p in work.rglob("*")
                               if p.is_file() and p.suffix in (".ndjson", ".ckpt")):
                rel = path.relative_to(work).as_posix()
                lines.append(f"{_sha(path.read_bytes())}  {name}/{rel}")
    return lines, worst


def environment() -> dict:
    """What the digests depend on beyond the source: the numpy and Python
    versions, the machine, and the CPU features numpy dispatches on."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__ as features

    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_features": " ".join(sorted(k for k, on in features.items() if on))}


def read_golden(path: Path = GOLDEN) -> tuple[dict, list[str]]:
    """The environment header and the digest lines of a golden file."""
    env, lines = {}, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            env[key] = value
        else:
            lines.append(line)
    return env, lines


def environment_mismatch(env: dict) -> list[str]:
    """How this interpreter's environment differs from ``env``: one
    ``key: golden != here`` entry per difference."""
    here = environment()
    return [f"{key}: {env.get(key)} != {value}" for key, value in here.items()
            if env.get(key) != value]


def golden_lines(lines: list[str], calls) -> list[str]:
    """The lines of a golden file that belong to ``calls``, in file order."""
    names = {name for name, *_ in calls}
    return [line for line in lines
            if re.split(r"[./]", line.split("  ", 1)[1], maxsplit=1)[0] in names]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    mode = args[0] if args[:1] in (["--workloads"], ["--write"]) else None
    args = args[mode is not None:]
    if len(args) != 1 or not (Path(args[0]) / "nsgl").is_dir():
        print("usage: python3 tools/stream_digest.py [--workloads | --write] SRC  "
              "(SRC holds the nsgl package)", file=sys.stderr)
        return 2
    src = Path(args[0])
    if mode == "--write":
        lines, worst = digest(src, CALLS)
        more, worst_more = digest(src, workload_calls())
        header = [f"# {key}: {value}" for key, value in environment().items()]
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text("\n".join(header + lines + more) + "\n", encoding="utf-8")
        print(f"wrote {len(lines) + len(more)} digests to {GOLDEN}")
        return max(worst, worst_more)
    lines, worst = digest(src, workload_calls() if mode else CALLS)
    print("\n".join(lines))
    return worst


if __name__ == "__main__":
    sys.exit(main())
