"""sha256 digests of every output of three small fixed-seed ``nsgl`` calls.

    python3 tools/stream_digest.py SRC

SRC is the ``src`` directory of a checkout (the one holding the ``nsgl``
package).  In a temporary directory the script runs, through
``python3 -m nsgl`` with ``PYTHONPATH=SRC``:

* ``run`` at N = 16 with ``h = cos x1``, writing NDJSON and a checkpoint
  every 5 steps, with ``stops.radius = pi/8``: the floor dx at N = 16,
  12^2 = 144 covering centers;
* ``ensemble`` at N = 16 with a constant h, 4 paths;
* ``converge`` at N = 16 with ``h = cos x1``, 3 members on 2 paths, a CFL
  safety small enough that every step is halved once, member streams, and
  ``stops.radius = pi/2``, whose covering has full and wrapping arcs.

It prints one ``sha256  name`` line for the stdout and stderr of each call
and for each NDJSON and checkpoint file, in a fixed order, then exits with
the largest exit code of the calls.  Two checkouts whose lines are equal
wrote the same bytes, so a diff of the two outputs shows whether a change
moved any output.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_SEEDS = """\
[noise]
seed = 301
mode_cutoff = 4
"""

CALLS = (
    ("run", """\
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
""" + _SEEDS),
    ("ensemble", """\
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
    ("converge", """\
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
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(src: Path) -> tuple[list[str], int]:
    """The digest lines of the three calls against ``src``, and their worst
    exit code."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    lines, worst = [], 0
    with tempfile.TemporaryDirectory(prefix="nsgl-digest-") as tmp:
        for command, ini in CALLS:
            work = Path(tmp) / command
            work.mkdir()
            (work / "cfg.ini").write_text(ini, encoding="utf-8")
            proc = subprocess.run([sys.executable, "-m", "nsgl", command, "-c", "cfg.ini"],
                                  cwd=work, env=env, capture_output=True)
            worst = max(worst, proc.returncode)
            lines.append(f"{_sha(proc.stdout)}  {command}.stdout")
            lines.append(f"{_sha(proc.stderr)}  {command}.stderr")
            for path in sorted(p for p in work.rglob("*")
                               if p.is_file() and p.suffix in (".ndjson", ".ckpt")):
                rel = path.relative_to(work).as_posix()
                lines.append(f"{_sha(path.read_bytes())}  {command}/{rel}")
    return lines, worst


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "nsgl").is_dir():
        print("usage: python3 tools/stream_digest.py SRC  "
              "(SRC holds the nsgl package)", file=sys.stderr)
        return 2
    lines, worst = digest(Path(args[0]))
    print("\n".join(lines))
    return worst


if __name__ == "__main__":
    sys.exit(main())
