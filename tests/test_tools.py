"""The repository's helper scripts run and say what they document."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    """The module of ``tools/<name>.py``."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_golden(lines, calls):
    """``lines`` are the golden file's lines of ``calls`` when this is the
    environment the file holds for; otherwise skip, naming what differs.
    ``python3 tools/stream_digest.py --write src`` rewrites the file."""
    digest = load_tool("stream_digest")
    env, golden = digest.read_golden()
    mismatch = digest.environment_mismatch(env)
    if mismatch:
        pytest.skip("the golden digests hold for another environment: " + "; ".join(mismatch))
    assert lines == digest.golden_lines(golden, calls)


def test_stream_digest_prints_one_stable_digest_per_output():
    """tools/stream_digest.py runs run, ensemble and converge at N = 16, the
    run again to its midpoint and resumed, and check at N = 32, and prints a
    sha256 for each stdout, stderr, NDJSON and checkpoint file, 20 lines;
    two runs against one tree print the same lines, the golden file's."""
    cmd = [sys.executable, str(ROOT / "tools" / "stream_digest.py"), str(ROOT / "src")]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout and first.stderr == ""
    lines = first.stdout.splitlines()
    assert len(lines) == 20
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ")[1] for line in lines]
    assert names[:6] == ["run.stdout", "run.stderr", "run/run.ckpt", "run/run.ndjson",
                         "ensemble.stdout", "ensemble.stderr"]
    assert names[6:8] == ["converge.stdout", "converge.stderr"]
    # 3 members on 2 paths, one stream each
    assert len(names[8:14]) == 6 and all(n.startswith("converge/family/") for n in names[8:14])
    assert names[14:18] == ["resume.stdout", "resume.stderr", "resume/run.ckpt",
                            "resume/run.ndjson"]
    assert names[18:] == ["check.stdout", "check.stderr"]
    # the run's summary and the reports are not empty
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    digests = dict(line.split("  ")[::-1] for line in lines)
    assert all(digests[n] != empty for n in ("run.stderr", "ensemble.stdout",
                                            "converge.stdout", "run/run.ndjson",
                                            "resume/run.ndjson", "check.stdout"))
    # the script exits with check's code, 0 only when every identity check
    # passes (check=True above); check writes nothing to stderr
    assert digests["check.stderr"] == empty
    # the resumed run ends where the uninterrupted one does: its summary and
    # last checkpoint are the same bytes; its rows start at the midpoint
    assert digests["resume.stderr"] == digests["run.stderr"]
    assert digests["resume/run.ckpt"] == digests["run/run.ckpt"]
    assert digests["resume/run.ndjson"] != digests["run/run.ndjson"]
    assert_golden(lines, load_tool("stream_digest").CALLS)


def test_stream_digest_of_the_benchmark_workloads():
    """``--workloads`` runs the three benchmark workloads at seed 301 and
    prints one digest per output: 16 lines, stdout and stderr of each call,
    the 8 member streams of ``family-n64`` and the NDJSON and checkpoint of
    ``run-n128``: the golden file's lines."""
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
    assert_golden(lines, load_tool("stream_digest").workload_calls())


def test_stream_digest_usage_error():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "stream_digest.py")],
                         capture_output=True, text=True)
    assert out.returncode == 2 and out.stderr.startswith("usage:")


def test_bench_pairs_summary_arithmetic():
    """Medians and quartiles as ``statistics.quantiles(n=4)`` gives them, the
    median gain signed so that positive is better, the parent's quartile
    spread, and the pairs the change won strictly."""
    bench = load_tool("bench_pairs")
    parent = [100.0, 104.0, 98.0, 102.0, 101.0]
    change = [110.0, 103.0, 109.0, 112.0, 101.0]
    s = bench.summarize(parent, change, higher_is_better=True)
    assert s["parent"] == (99.0, 101.0, 103.0)
    assert s["change"] == (102.0, 109.0, 111.0)
    assert s["gain"] == 8.0 and s["spread"] == 4.0
    assert s["relative"] == 8.0 / 101.0
    assert s["wins"] == 3 and s["pairs"] == 5  # 104 -> 103 lost, 101 -> 101 a tie
    lower = bench.summarize(parent, change, higher_is_better=False)
    assert lower["gain"] == -8.0 and lower["wins"] == 1
    assert bench.summarize([5.0], [4.0], higher_is_better=False)["parent"] == (5.0, 5.0, 5.0)
    line = bench.format_summary("steps_per_s", s)
    assert line.startswith("steps_per_s: 101 (99, 103) -> 109 (102, 111), +7.92%")
    assert "change ahead in 3 of 5" in line


def test_bench_pairs_refuses_a_tree_without_the_benchmark(tmp_path):
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"),
                          str(tmp_path), str(ROOT), "--workload", "ensemble-n32"],
                         capture_output=True, text=True)
    assert out.returncode == 2 and "no perfbench/run.py under" in out.stderr


def test_bench_pairs_takes_its_workloads_and_run_length_from_the_benchmark(monkeypatch,
                                                                         capsys):
    """``--workload`` accepts only the names of ``BENCHMARK.json``'s
    ``workloads``: ``all`` and a misspelt name exit 2 before any run.
    ``--seconds`` defaults to its ``run_seconds``."""
    bench = load_tool("bench_pairs")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = []

    def no_run(tree, workload, seconds, seed, metrics):
        runs.append((workload, seconds))
        return None, "not run"

    monkeypatch.setattr(bench, "run_once", no_run)
    for name in ("all", "ensemble-n23"):
        with pytest.raises(SystemExit) as exc:
            bench.main([str(ROOT), str(ROOT), "--workload", name])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and name in err
    assert runs == []
    for w in declared["workloads"]:
        assert bench.main([str(ROOT), str(ROOT), "--workload", w["name"]]) == 1
    # the first pair runs both trees, then stops on the failures
    assert runs == [(w["name"], declared["run_seconds"])
                    for w in declared["workloads"] for side in ("parent", "change")]


def test_bench_pairs_writes_its_pairs_into_one_bench_file(tmp_path, monkeypatch, capsys):
    """``--json`` writes what the script prints, per workload: the per-pair
    values, medians, quartiles and wins of each end-to-end metric, both
    trees' commits, the seed, the seconds, the pair count and the host.  A
    call for another workload adds to the file, and one for the same
    workload replaces its entry.  The runs are canned: nothing is started."""
    bench = load_tool("bench_pairs")
    canned = {"parent": iter([100.0, 104.0, 98.0, 102.0, 101.0, 50.0, 52.0]),
              "change": iter([110.0, 103.0, 109.0, 112.0, 101.0, 55.0, 57.0])}

    def canned_run(tree, workload, seconds, seed, metrics):
        side = "parent" if tree.name == "before" else "change"
        v = next(canned[side])
        return {"steps_per_s": v, "setup_s": v / 100.0, "peak_rss_mb": 40.0}, ""

    monkeypatch.setattr(bench, "run_once", canned_run)
    monkeypatch.setattr(bench, "tree_commit", lambda tree: {"commit": tree.name, "dirty": False})
    for name in ("before", "after"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text("")
    out = tmp_path / "BENCH_0.json"
    trees = [str(tmp_path / "before"), str(tmp_path / "after")]
    assert bench.main([*trees, "--workload", "ensemble-n32", "--pairs", "5", "--seconds", "3",
                       "--seed", "7", "--json", str(out)]) == 0
    assert bench.main([*trees, "--workload", "run-n128", "--pairs", "2", "--seconds", "4",
                       "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    data = json.loads(out.read_text(encoding="utf-8"))
    assert list(data) == ["workloads"] and list(data["workloads"]) == ["ensemble-n32",
                                                                       "run-n128"]
    entry = data["workloads"]["ensemble-n32"]
    assert entry["trees"] == {"parent": {"commit": "before", "dirty": False},
                              "change": {"commit": "after", "dirty": False}}
    assert (entry["seed"], entry["seconds"], entry["pairs"]) == (7, 3, 5)
    assert set(entry["environment"]) == {"nproc", "cpu_model", "numpy", "python"}
    assert entry["environment"]["nproc"] >= 1
    assert entry["environment"]["numpy"] == np.__version__
    assert entry["environment"]["python"] == sys.version.split()[0]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(entry["metrics"]) == [m["name"] for m in declared["end_to_end"]]
    speed = entry["metrics"]["steps_per_s"]
    assert speed == {
        "better": "higher",
        "parent": {"values": [100.0, 104.0, 98.0, 102.0, 101.0],
                   "q1": 99.0, "median": 101.0, "q3": 103.0},
        "change": {"values": [110.0, 103.0, 109.0, 112.0, 101.0],
                   "q1": 102.0, "median": 109.0, "q3": 111.0},
        "relative": 8.0 / 101.0, "gain": 8.0, "spread": 4.0, "wins": 3,
    }
    assert "steps_per_s: 101 (99, 103) -> 109 (102, 111), +7.92%" in printed
    setup = entry["metrics"]["setup_s"]
    assert setup["better"] == "lower" and setup["wins"] == 1
    assert entry["metrics"]["peak_rss_mb"]["wins"] == 0  # equal in every pair
    second = data["workloads"]["run-n128"]
    assert (second["seed"], second["seconds"], second["pairs"]) == (0, 4, 2)
    assert second["metrics"]["steps_per_s"]["parent"]["values"] == [50.0, 52.0]
    # the same workload again replaces its entry and keeps the other
    canned["parent"], canned["change"] = iter([1.0]), iter([2.0])
    assert bench.main([*trees, "--workload", "run-n128", "--pairs", "1", "--seconds", "4",
                       "--json", str(out)]) == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["workloads"]["ensemble-n32"] == entry
    assert data["workloads"]["run-n128"]["metrics"]["steps_per_s"]["change"]["values"] == [2.0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_0.json", "after", "before"]


def test_the_benchmark_tracer_finds_the_names_it_wraps(monkeypatch):
    """Every name ``perfbench/tracer.py`` wraps resolves, as ``install``
    resolves it (without wrapping), except two stale entries it records as
    absent.  The tracer records a missing name and runs on, so without this
    test a module move that loses a wrapped name would go unnoticed."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # the tracer imports ``stats``
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def absent(wraps):
        missing = set()
        for module, attr_path, _, _ in wraps:
            try:
                owner = importlib.import_module(module)
            except ImportError:
                owner = None
            for part in attr_path.split("."):
                owner = getattr(owner, part, None) if owner is not None else None
            if not callable(owner):
                missing.add(f"{module}.{attr_path}")
        return missing

    assert absent(tracer.WRAPS) == {"nsgl.experiments.sample_increment",
                                    "nsgl.operators.leray_project_spec"}
    assert absent(tracer.PLAIN_WRAPS) == set()


def test_the_golden_digest_file_names_its_environment():
    """The golden file opens with the four environment keys, then holds the
    20 lines of the small calls and the 16 of the workloads; a changed key
    is reported as ``key: golden != here``."""
    digest = load_tool("stream_digest")
    env, lines = digest.read_golden()
    assert list(env) == ["numpy", "python", "machine", "cpu_features"]
    assert len(digest.golden_lines(lines, digest.CALLS)) == 20
    assert len(digest.golden_lines(lines, digest.workload_calls())) == 16
    assert len(lines) == 36
    here = digest.environment()
    assert digest.environment_mismatch(here) == []
    assert digest.environment_mismatch(dict(here, numpy="1.0")) == \
        [f"numpy: 1.0 != {here['numpy']}"]
