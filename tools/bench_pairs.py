"""Alternating benchmark pairs of two checkouts, and their summary.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W \\
        [--pairs K] [--seconds S] [--seed N] [--json BENCH_FILE]

PARENT_TREE and CHANGE_TREE are the roots of two source checkouts, each with
its own ``perfbench/`` and ``src/``.  For each of K pairs the script runs
``perfbench/run.py --workload W --seed N --seconds S --trace 0`` once from
each tree, the parent first in odd pairs and the change first in even ones,
so a drift in the host's speed does not favour one side.  It prints one line
per pair as it goes, then for each end-to-end metric both sides' medians
and quartiles, the median's change, and in how many pairs the change was
ahead.  A run whose exit code is nonzero, or that reports a failed
invocation, is printed as such and stops the script with exit code 1.
W is one of ``BENCHMARK.json``'s ``workloads``, S defaults to its
``run_seconds`` and K to 10.  The metrics and their better direction are
its ``end_to_end``, and the quartiles those of ``perfbench/stats.py``, all
read from the checkout the script lives in.
Nothing is written under either ``perfbench/``; the runs keep their scratch
files in each checkout's ``.perfbench_runs/``.

With ``--json``, a run whose pairs all succeed also writes what it prints
into BENCH_FILE, under ``workloads[W]``: for each end-to-end metric both
sides' per-pair values in pair order, medians, quartiles and wins; both
trees' commits and whether their tracked files differ from them; the
seed, the seconds and the pair count; and the host: ``nproc``, the CPU
model, and the numpy and Python versions.  A call for another workload
adds its entry to an existing file, and a call for the same workload
replaces it.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# the benchmark's own order statistics, read from this checkout's perfbench/
sys.path.insert(0, str(PERFBENCH))
try:
    quartiles = importlib.import_module("stats").quartiles
finally:
    sys.path.remove(str(PERFBENCH))


def summarize(parent, change, higher_is_better: bool) -> dict:
    """Summary of one metric over pairs: ``parent[i]`` and ``change[i]``
    come from pair i.

    ``gain`` is the change's median minus the parent's, signed so that
    positive is better; ``spread`` is the parent's interquartile range;
    ``wins`` counts the pairs in which the change was strictly better.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("summarize needs one parent and one change value per pair")
    sign = 1.0 if higher_is_better else -1.0
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p, "change": c,
        "gain": sign * (c[1] - p[1]),
        "relative": (c[1] - p[1]) / p[1] if p[1] else float("nan"),
        "spread": p[2] - p[0],
        "wins": sum(sign * (b - a) > 0.0 for a, b in zip(parent, change)),
        "pairs": len(parent),
    }


def run_once(tree: Path, workload: str, seconds: int, seed: int,
             metrics) -> tuple[dict | None, str]:
    """``metrics`` of one ``--trace 0`` run from ``tree``, or None and why not."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, f"exit {out.returncode}: {out.stderr.strip()[-300:]}"
    result = json.loads(lines[-1])
    if result["failed"]:
        return None, f"{result['failed']} of {result['attempted']} invocations failed"
    return {k: result["metrics"][k]["value"] for k in metrics}, ""


def format_summary(name: str, s: dict) -> str:
    (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
    return (f"{name}: {p2:.6g} ({p1:.6g}, {p3:.6g}) -> {c2:.6g} ({c1:.6g}, {c3:.6g}), "
            f"{100.0 * s['relative']:+.2f}%; change ahead in {s['wins']} of {s['pairs']}; "
            f"median gain {s['gain']:.6g} vs parent quartile spread {s['spread']:.6g}")


def environment() -> dict:
    """The host and interpreter the pairs run on: the CPUs this process may
    use (``nproc``), the CPU model from ``/proc/cpuinfo`` (None where it
    cannot be read), and the numpy and Python versions."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "numpy": importlib.metadata.version("numpy"),
            "python": platform.python_version()}


def tree_commit(tree: Path) -> dict:
    """The commit a tree is checked out at (None outside git), and whether
    its tracked files differ from that commit (None outside git)."""
    def git(*args):
        out = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    dirty = None if commit is None else bool(git("status", "--porcelain",
                                                 "--untracked-files=no"))
    return {"commit": commit, "dirty": dirty}


def bench_entry(trees: dict, seed: int, seconds: int, values: dict, metrics: dict,
                env: dict) -> dict:
    """The BENCH file's record of one workload's pairs: ``trees`` maps each
    side to its ``tree_commit``, ``values`` each side and metric to the
    per-pair values, and ``metrics`` each metric to True when higher is
    better."""
    record = {}
    for k, higher in metrics.items():
        parent, change = values["parent"][k], values["change"][k]
        s = summarize(parent, change, higher)
        sides = {side: {"values": list(vals), "q1": q[0], "median": q[1], "q3": q[2]}
                 for side, vals, q in (("parent", parent, s["parent"]),
                                       ("change", change, s["change"]))}
        record[k] = {"better": "higher" if higher else "lower", **sides,
                     **{f: s[f] for f in ("relative", "gain", "spread", "wins")}}
    return {"trees": trees, "seed": seed, "seconds": seconds,
            "pairs": len(values["parent"][next(iter(metrics))]),
            "environment": env, "metrics": record}


def write_bench(path: Path, workload: str, entry: dict) -> None:
    """Put ``entry`` under ``workloads[workload]`` of the JSON file at
    ``path``, creating the file when it is missing."""
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {"workloads": {}}
    data["workloads"][workload] = entry
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="BENCH file to add this workload's pairs to")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {tree}")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    # name -> True when higher is better
    metrics = {m["name"]: m["better"] == "higher" for m in bench["end_to_end"]}
    values = {side: {k: [] for k in metrics} for side in trees}
    failed = False
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side], why = run_once(trees[side], args.workload, args.seconds, args.seed,
                                      metrics)
            if got[side] is None:
                print(f"pair {i + 1}: {side} run failed: {why}", flush=True)
                failed = True
        if failed:
            break
        for side in trees:
            for k in metrics:
                values[side][k].append(got[side][k])
        cells = "  ".join(f"{k} {got['parent'][k]:.6g} -> {got['change'][k]:.6g}"
                          for k in metrics)
        print(f"pair {i + 1} ({order[0]} first): {cells}", flush=True)

    done = len(next(iter(values["parent"].values())))
    if done:
        print(f"== {args.workload}: {done} pairs, "
              f"seed {args.seed}, {args.seconds} s, parent -> change, median (q1, q3)")
        for k, higher in metrics.items():
            print(format_summary(k, summarize(values["parent"][k], values["change"][k],
                                              higher)))
    if failed:
        return 1
    if args.json is not None:
        commits = {side: tree_commit(tree) for side, tree in trees.items()}
        write_bench(args.json, args.workload, bench_entry(
            commits, args.seed, args.seconds, values, metrics, environment()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
