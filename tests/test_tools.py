"""The repository's helper scripts run and say what they document."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_stream_digest_prints_one_stable_digest_per_output():
    """tools/stream_digest.py runs run, ensemble and converge at N = 16 and
    prints a sha256 for each stdout, stderr, NDJSON and checkpoint file;
    two runs against one tree print the same lines."""
    cmd = [sys.executable, str(ROOT / "tools" / "stream_digest.py"), str(ROOT / "src")]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout and first.stderr == ""
    lines = first.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ")[1] for line in lines]
    assert names[:6] == ["run.stdout", "run.stderr", "run/run.ckpt", "run/run.ndjson",
                         "ensemble.stdout", "ensemble.stderr"]
    assert names[6:8] == ["converge.stdout", "converge.stderr"]
    # 3 members on 2 paths, one stream each
    assert len(names[8:]) == 6 and all(n.startswith("converge/family/") for n in names[8:])
    # the run's summary and the reports are not empty
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    digests = dict(line.split("  ")[::-1] for line in lines)
    assert all(digests[n] != empty for n in ("run.stderr", "ensemble.stdout",
                                            "converge.stdout", "run/run.ndjson"))


def test_stream_digest_of_the_benchmark_workloads():
    """``--workloads`` runs the three benchmark workloads at seed 301 and
    prints one digest per output: 16 lines, stdout and stderr of each call,
    the 8 member streams of ``family-n64`` and the NDJSON and checkpoint of
    ``run-n128``."""
    cmd = [sys.executable, str(ROOT / "tools" / "stream_digest.py"), "--workloads",
           str(ROOT / "src")]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert out.stderr == ""
    lines = out.stdout.splitlines()
    assert len(lines) == 16
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ")[1] for line in lines]
    assert names[:4] == ["ensemble-n32.stdout", "ensemble-n32.stderr",
                         "family-n64.stdout", "family-n64.stderr"]
    assert all(n.startswith("family-n64/family/path00") for n in names[4:12])
    assert names[12:] == ["run-n128.stdout", "run-n128.stderr", "run-n128/run.ckpt",
                          "run-n128/run.ndjson"]


def test_stream_digest_usage_error():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "stream_digest.py")],
                         capture_output=True, text=True)
    assert out.returncode == 2 and out.stderr.startswith("usage:")
