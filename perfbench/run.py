"""Benchmark for nsgl: three CLI workloads run in child processes.

    python3 perfbench/run.py --workload run-n128 --seed 3 --seconds 36 --trace 0

Run from the root of a source checkout; the children import the package
from ``src/``.  ``--trace 0`` measures the end-to-end metrics: ``setup_s``
from fresh ``nsgl dump-config`` processes, then ``steps_per_s`` and
``peak_rss_mb`` from main CLI calls repeated for ``--seconds`` seconds, with
only the drivers' ``step`` wrapped, to time the step loop and run a speed
probe before each step.  ``--trace 1`` alternates untraced and traced calls
of the same INI for ``--seconds`` seconds and reports the per-layer metrics
from the traced ones (see ``tracer.py``).  With ``--workload all`` (the
default) every workload runs both ways and a table is printed.

Every call's outputs are checked (``workloads.py``); a call fails on a
nonzero exit or a failed check, and repeated calls at one seed, traced or
not, must produce byte-identical outputs.  Human-readable lines come first;
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (invocations) and ``metrics``.  Scratch files go
to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import error_rate, percentile, quartiles, tail_percentile, window_rates
from tracer import LAYER_METRICS, layer_metrics, load_record
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# the body of the installed ``nsgl`` console script
CLI = [sys.executable, "-c", "import sys; from nsgl.io_cli import main; sys.exit(main())"]

# name -> (unit, better); the end-to-end metrics in BENCHMARK.json
END_TO_END = {
    "steps_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# timed dump-config calls after each main call, so that setup_s samples
# the whole run rather than the few seconds before it
SETUP_PER_CALL = 2
# seconds of step loop per steps_per_s sample
RATE_WINDOW_S = 0.5
# steps_per_s is scaled to a core on which tracer.speed_probe takes this
# long.  On a shared host a core's speed drifts by up to 1.7x over seconds
# to minutes, with CPU time tracking wall time; the probe, run on the same
# core just before each step, follows that drift (correlation 0.95 with the
# window rates on ensemble-n32) while no change to the package moves it
PROBE_REF_S = 100e-6
# a child still running this long after the run started is killed, so the
# whole run ends within three minutes
RUN_DEADLINE_S = 165.0


@dataclass
class Call:
    rc: int
    wall: float       # s
    cpu: float        # user + system s, the child's own (os.wait4)
    maxrss_mb: float  # os.wait4's ru_maxrss: at least the forking process's peak
    stdout: str
    stderr: str


def run_child(argv, cwd: Path, env: dict, timeout: float) -> Call:
    """Run one child to completion and take its own CPU time from wait4.

    RUSAGE_CHILDREN would sum every earlier child, so each call reads its
    own rusage instead.
    """
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(rc=proc.returncode, wall=wall, cpu=ru.ru_utime + ru.ru_stime,
                maxrss_mb=ru.ru_maxrss * 1024 / 1e6,
                stdout=out_path.read_text(encoding="utf-8", errors="replace"),
                stderr=err_path.read_text(encoding="utf-8", errors="replace"))


@dataclass
class Tally:
    """Invocations attempted and failed, with the reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
        return not problems


def _exit_problems(call: Call) -> list[str]:
    if call.rc == 0:
        return []
    last = call.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    return [f"exit code {call.rc}: {last[0]}"]


class Session:
    """One workload at one seed: its INI, scratch directory and child env."""

    def __init__(self, workload: Workload, seed: int, trace: int):
        self.w = workload
        self.dir = RUNS_DIR / f"{workload.name}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ini = self.dir / "workload.ini"
        self.ini.write_text(workload.ini_text(seed), encoding="utf-8")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.tally = Tally()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.reference = None  # outputs of the first good main call
        self.calls = 0  # main CLI calls made, traced or not
        self.setup_calls = 0

    def main_call(self, traced: bool) -> tuple[Call, bool, float, tuple | None]:
        """One main CLI call in a fresh directory.

        Returns the call, whether it passed, its own peak RSS in MB and its
        (spans, absent wrapped names): every wrapped span when traced, the
        step and probe spans when not.
        """
        self.calls += 1
        label = f"{'traced' if traced else 'main'} call {self.calls}"
        cdir = self.dir / f"call{self.calls:02d}"
        cdir.mkdir()
        record_path = self.dir / f"record{self.calls:02d}.json"
        argv = [sys.executable, str(TRACER), str(record_path),
                "trace" if traced else "plain", "--", self.w.command, "-c", str(self.ini)]
        call = run_child(argv, cdir, self.env, self.deadline - time.monotonic())
        problems = _exit_problems(call)
        spans, rss_mb = None, call.maxrss_mb
        if not problems:
            try:
                record = load_record(record_path)
            except (OSError, ValueError) as exc:
                record, problems = None, [f"no call record: {exc}"]
        if not problems:
            if record["peak_rss_kb"] is not None:
                rss_mb = record["peak_rss_kb"] * 1024 / 1e6
            spans = record["spans"], record["absent"]
            if not traced:
                record_path.unlink()
            problems = self.w.check(cdir, call.stdout)
        if not problems:
            outputs = self.w.outputs(cdir, call.stdout)
            if self.reference is None:
                self.reference = outputs
            elif outputs != self.reference:
                problems = ["outputs differ from the first call at this seed"]
        if traced and not problems:
            recorded, absent = spans
            n_steps = sum(1 for sp in recorded if sp[0] == "stepper.step")
            if "nsgl.experiments.step" not in absent and n_steps != self.w.path_steps:
                problems = [f"{n_steps} traced path-steps, expected {self.w.path_steps}"]
        shutil.rmtree(cdir)
        ok = self.tally.record(label, problems)
        return call, ok, rss_mb, spans if ok else None

    def setup_call(self) -> float | None:
        """Wall time of one fresh ``dump-config`` process, None if it failed."""
        self.setup_calls += 1
        call = run_child(CLI + ["dump-config", "-c", str(self.ini)], self.dir, self.env,
                         self.deadline - time.monotonic())
        problems = _exit_problems(call)
        if not problems and "[grid]" not in call.stdout:
            problems = ["dump-config printed no config"]
        ok = self.tally.record(f"dump-config {self.setup_calls}", problems)
        return call.wall if ok else None


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _time_left(t_start: float, seconds: float, durations: list) -> bool:
    """Start another call only if at least half of a typical one fits."""
    if not durations:
        return True
    return time.perf_counter() - t_start + 0.5 * statistics.median(durations) < seconds


def loop_rates(w: Workload, call: Call, spans) -> tuple[list[float], list[float]]:
    """One call's step-loop path-step rates over RATE_WINDOW_S windows, scaled
    to the reference probe time, and its probe times in s.

    A call without one probe per step (the drivers no longer call a wrapped
    ``step``) yields its unscaled whole-call rate instead.
    """
    def spans_named(name):
        return sorted(sp[1:3] for sp in spans[0] if sp[0] == name)

    steps, probes, timed = (spans_named(n) for n in ("stepper.step", "probe", "probe.timed"))
    if not steps or not len(probes) == len(timed) == len(steps):
        return [w.path_steps / call.wall], []
    timed_s = [(t1 - t0) / 1e9 for t0, t1 in timed]
    rates = window_rates([t0 / 1e9 for t0, _ in probes], steps[-1][1] / 1e9,
                         w.path_steps / len(steps), RATE_WINDOW_S,
                         probes=[(t1 - t0) / 1e9 for t0, t1 in probes],
                         probe_times=timed_s, probe_ref=PROBE_REF_S)
    return rates, timed_s


def measure_end_to_end(w: Workload, seed: int, seconds: float) -> tuple[dict, Session, dict]:
    s = Session(w, seed, trace=0)
    # untimed: lets the interpreter write its bytecode cache, which an
    # installed package already has
    s.setup_call()
    walls, rates, probe_s, rss, cpu, setup = [], [], [], [], [], []
    t_start = time.perf_counter()
    while _time_left(t_start, seconds, walls):
        call, ok, rss_mb, spans = s.main_call(traced=False)
        if not ok:
            break
        walls.append(call.wall)
        call_rates, call_probes = loop_rates(w, call, spans)
        rates += call_rates
        probe_s += call_probes
        rss.append(rss_mb)
        cpu.append(call.cpu / call.wall)
        setup += [t for t in (s.setup_call() for _ in range(SETUP_PER_CALL)) if t is not None]
    metrics = {"steps_per_s": _median(rates), "setup_s": _median(setup),
               "peak_rss_mb": _median(rss)}
    samples = {"steps_per_s": rates, "setup_s": setup, "peak_rss_mb": rss,
               "probe_us": [t * 1e6 for t in probe_s],
               "call_steps_per_s": [w.path_steps / wall for wall in walls],
               "process.cpu_per_wall": cpu}
    return metrics, s, samples


def measure_layers(w: Workload, seed: int, seconds: float) -> tuple[dict, Session, list]:
    s = Session(w, seed, trace=1)
    traced_calls, cpu, overhead, pair_walls = [], [], [], []
    t_start = time.perf_counter()
    pairs = 0
    while _time_left(t_start, seconds, pair_walls):
        walls = {}
        # alternate which side runs first
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            call, ok, _, spans = s.main_call(traced)
            if not ok:
                continue
            walls[traced] = call.wall
            if traced:
                traced_calls.append(spans)
            else:
                cpu.append(call.cpu / call.wall)
        if len(walls) < 2:
            break
        overhead.append(walls[True] / walls[False])
        pair_walls.append(walls[True] + walls[False])
        pairs += 1
    metrics, absent = layer_metrics(traced_calls, w.path_steps,
                                    cpu_per_wall=_median(cpu),
                                    trace_overhead=_median(overhead))
    gone = sorted({label for _, lost in traced_calls for label in lost})
    return metrics, s, absent + [f"wrap {g}" for g in gone]


# -- environment record -----------------------------------------------------------

def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None when not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment(seed: int, runs: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "seed": seed,
        "runs": runs,
    }


# -- reporting -----------------------------------------------------------------------

def _spread_line(name: str, unit: str, values: list, better: str = "lower") -> str:
    """The sample's median with its quartiles, plus the worse-side tail when
    the sample allows one."""
    if not values:
        return f"{name} = n/a {unit}  (no successful call)"
    q1, med, q3 = quartiles(values)
    line = f"{name} = {med:.6g} {unit}  (median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"
    tail = tail_percentile(len(values))
    if tail is not None and tail > 50.0:
        if better == "lower":
            line += f", p{tail:g} {percentile(values, tail):.6g}"
        else:  # the slow tail of a rate is its low end
            line += f", p{100.0 - tail:g} {-percentile([-v for v in values], tail):.6g}"
    return line + ")"


def _result(tally: Tally, metrics: dict, units: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def report_end_to_end(w, seed, seconds) -> tuple[dict, Session]:
    metrics, s, samples = measure_end_to_end(w, seed, seconds)
    print(f"== {w.name}: end to end, seed {seed}, {len(samples['call_steps_per_s'])} timed "
          f"{w.command} calls of {w.path_steps} path-steps, "
          f"{len(samples['steps_per_s'])} step-loop windows of >= {RATE_WINDOW_S:g} s, "
          f"{len(samples['setup_s'])} setup calls")
    for name, (unit, better) in END_TO_END.items():
        print(_spread_line(name, unit, samples[name], better))
    print(_spread_line("probe_us", "us", samples["probe_us"])
          + f" speed probe; steps_per_s is scaled to {PROBE_REF_S * 1e6:g} us")
    print(_spread_line("call_steps_per_s", "1/s", samples["call_steps_per_s"], "higher")
          + " path-steps over whole-call wall time, start-up included")
    print(f"error_rate = {error_rate(s.tally.attempted, s.tally.failed):.6g} "
          f"({s.tally.failed} of {s.tally.attempted} invocations failed)")
    print(_spread_line("process.cpu_per_wall", "ratio", samples["process.cpu_per_wall"]))
    for p in s.tally.problems:
        print(f"FAILED {p}")
    return metrics, s


def report_layers(w, seed, seconds) -> tuple[dict, Session]:
    metrics, s, absent = measure_layers(w, seed, seconds)
    print(f"== {w.name}: per layer, seed {seed}, {s.calls // 2} untraced/traced pairs, "
          f"{w.path_steps} path-steps per call, spans in {s.dir}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {LAYER_METRICS[name][0]}")
    print("absent: " + (", ".join(absent) if absent else "none"))
    for p in s.tally.problems:
        print(f"FAILED {p}")
    return metrics, s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "nsgl" / "io_cli.py").is_file():
        print(f"error: no nsgl sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    units = {k: u for k, (u, _) in END_TO_END.items()}
    units.update({k: spec[0] for k, spec in LAYER_METRICS.items()})
    if args.workload != "all":
        w = WORKLOADS[args.workload]
        measure = report_layers if args.trace else report_end_to_end
        metrics, s = measure(w, args.seed, args.seconds)
        print("env: " + json.dumps(environment(args.seed, s.calls)))
        print(json.dumps(_result(s.tally, metrics, units)))
        return 0

    total, calls = Tally(), 0
    combined, combined_units = {}, {}
    for w in WORKLOADS.values():
        for measure in (report_end_to_end, report_layers):
            metrics, s = measure(w, args.seed, args.seconds)
            total.attempted += s.tally.attempted
            total.failed += s.tally.failed
            calls += s.calls
            for k, v in metrics.items():
                combined[f"{w.name}.{k}"] = v
                combined_units[f"{w.name}.{k}"] = units[k]
    print(f"== all workloads: error_rate = {error_rate(total.attempted, total.failed):.6g} "
          f"({total.failed} of {total.attempted} invocations failed)")
    print("env: " + json.dumps(environment(args.seed, calls)))
    print(json.dumps(_result(total, combined, combined_units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
