"""Span tracer for one ``nsgl`` CLI call, and the per-layer metrics it yields.

Every main CLI call of the benchmark runs as a child process through this file:

    PYTHONPATH=src python3 perfbench/tracer.py RECORD.json trace -- run -c workload.ini

It runs ``nsgl.io_cli.main`` on the arguments after ``--`` and then writes
RECORD.json with the process's own peak RSS and the spans it kept in memory.
In ``trace`` mode it first wraps the public functions listed in ``WRAPS``
from the outside (the package itself is not edited).  In ``plain`` mode it
wraps only the drivers' ``step`` (``PLAIN_WRAPS``) and runs ``speed_probe``
just before each step, as a ``probe`` span: the spans give the step loop's
throughput, and the probe times the core's speed at the same moment.  The peak
RSS comes from the child itself because a child's ``ru_maxrss`` as ``wait4``
reports it starts at the high-water mark of the process that forked it.

A module imports names into its own namespace, so each name is wrapped
where its caller looks it up: ``sample_increment`` in both ``nsgl.stepper``
and ``nsgl.experiments``, for instance.  A listed name that no longer exists
is recorded as absent and never fails the run, so the benchmark keeps
working across refactors of the package.

``layer_metrics`` turns the spans of one or more traced calls into the
per-layer metrics named in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time

import numpy as np

from stats import per_step, percentile, self_times


def _fft_extra(args, kwargs, out, default_axes=None):
    """(2D slices, bytes in + out) of a numpy.fft 2D/ND call.

    The slice count is the input size over the product of the transformed
    axis lengths, so full and half-spectrum (rfft2) transforms count alike.
    """
    a = np.asarray(args[0] if args else kwargs["a"])
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    s = kwargs.get("s", args[1] if len(args) > 1 else None)
    if axes is None:
        axes = default_axes or (range(a.ndim) if s is None else range(-len(s), 0))
    transformed = math.prod(a.shape[ax] for ax in axes)
    slices = a.size // transformed if transformed else 0
    return slices, int(a.nbytes + np.asarray(out).nbytes)


def _step_extra(args, kwargs, out):
    ledger = out[1]
    return int(ledger.n_substeps), int(ledger.level_max)


def _row_extra(args, kwargs, out):
    return (len(out) + 1,)  # the row plus its newline


def _checkpoint_extra(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return (os.path.getsize(path),)


_FFT_FORWARD = ("fft2", "fftn", "rfft2", "rfftn")
_FFT_INVERSE = ("ifft2", "ifftn", "irfft2", "irfftn")
_DRIVERS = ("experiments.run_path", "experiments.run_ensemble",
            "experiments.run_coupled_family")

_FFT2_EXTRA = functools.partial(_fft_extra, default_axes=(-2, -1))

# (module, attribute path, span name, extra-fields function)
WRAPS = (
    *(("numpy.fft", f, "grid.fft", _FFT2_EXTRA if f.endswith("2") else _fft_extra)
      for f in _FFT_FORWARD),
    *(("numpy.fft", f, "grid.ifft", _FFT2_EXTRA if f.endswith("2") else _fft_extra)
      for f in _FFT_INVERSE),
    ("nsgl.stepper", "coupling_drift_spec", "operators.coupling_drift_spec", None),
    ("nsgl.stepper", "leray_project_spec", "operators.leray_project_spec", None),
    ("nsgl.operators", "leray_project_spec", "operators.leray_project_spec", None),
    ("nsgl.experiments", "step", "stepper.step", _step_extra),
    ("nsgl.stepper", "diffuse_spec", "stepper.diffuse_spec", None),
    ("nsgl.stepper", "gl_reaction_phys", "stepper.gl_reaction_phys", None),
    ("nsgl.stepper", "rotate_phys", "stepper.rotate_phys", None),
    ("nsgl.stepper", "sample_increment", "noise.sample_increment", None),
    ("nsgl.experiments", "sample_increment", "noise.sample_increment", None),
    ("nsgl.experiments", "energy_report", "diagnostics.energy_report", None),
    ("nsgl.diagnostics", "CoveringSet.local_maxima", "diagnostics.local_maxima", None),
    ("nsgl.io_cli", "run_path", "experiments.run_path", None),
    ("nsgl.io_cli", "run_ensemble", "experiments.run_ensemble", None),
    ("nsgl.io_cli", "run_coupled_family", "experiments.run_coupled_family", None),
    ("nsgl.experiments", "run_path", "experiments.run_path", None),
    ("nsgl.experiments", "sobolev_norm", "experiments.sobolev_norm", None),
    ("nsgl.io_cli", "load_config", "io_cli.load_config", None),
    ("nsgl.io_cli", "build_components", "io_cli.build_components", None),
    ("nsgl.io_cli", "format_report", "io_cli.format_report", _row_extra),
    ("nsgl.io_cli", "save_checkpoint", "io_cli.save_checkpoint", _checkpoint_extra),
)
# the one wrap of a plain call: start and end of every step the drivers take
PLAIN_WRAPS = (("nsgl.experiments", "step", "stepper.step", None),)

_PROBE_FIELD = np.random.default_rng(0).standard_normal((32, 32)) + 0j


def speed_probe() -> None:
    """Fixed work in the program's own mix, a Python loop and a small FFT
    pair, that no change to the package can speed up or slow down."""
    acc = 0
    for i in range(300):
        acc += i * i
    np.fft.ifft2(np.fft.fft2(_PROBE_FIELD) * 0.5)


def install_probe(recorder: "Recorder") -> None:
    """Before every call of the step that ``PLAIN_WRAPS`` names, run
    ``speed_probe`` twice inside a ``probe`` span, the second time as a
    ``probe.timed`` span.  The first run brings the probe's code and data
    back into the caches after the step before, so the timed run measures
    the core's speed rather than what the program left in the caches."""
    module, attr = PLAIN_WRAPS[0][:2]
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return
    inner = getattr(owner, attr, None)
    if not callable(inner):
        return
    timed = recorder.wrap(speed_probe, "probe.timed")

    def warm_then_timed():
        speed_probe()
        timed()

    probe = recorder.wrap(warm_then_timed, "probe")

    @functools.wraps(inner)
    def probed(*args, **kwargs):
        probe()
        return inner(*args, **kwargs)

    setattr(owner, attr, probed)


class Recorder:
    """In-memory spans: [name, start_ns, end_ns, parent index, *extra]."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]

    def wrap(self, fn, name: str, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            done = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                span = [name, t0, t1, parent]
                if extra is not None and done:
                    span.extend(extra(args, kwargs, out))
                spans[idx] = span

        return traced


def install(recorder: Recorder, wraps=WRAPS) -> list[str]:
    """Wrap every listed name that exists; return the ones that do not."""
    absent = []
    for module, attr_path, name, extra in wraps:
        label = f"{module}.{attr_path}"
        try:
            owner = importlib.import_module(module)
        except ImportError:
            absent.append(label)
            continue
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        target = getattr(owner, attr, None) if owner is not None else None
        if not callable(target):
            absent.append(label)
            continue
        setattr(owner, attr, recorder.wrap(target, name, extra))
    return absent


def _own_peak_rss_kb():
    """VmHWM of this process, which starts afresh at exec; None off Linux."""
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv) -> int:
    if len(argv) < 3 or argv[1] not in ("trace", "plain") or argv[2] != "--":
        print("usage: tracer.py RECORD.json {trace|plain} -- <nsgl arguments>",
              file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[3:]
    recorder = Recorder()
    if argv[1] == "trace":
        absent = install(recorder, WRAPS)
    else:
        absent = install(recorder, PLAIN_WRAPS)
        install_probe(recorder)
    from nsgl.io_cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_kb": _own_peak_rss_kb(), "absent": absent,
                       "spans": recorder.spans}, fh)


# -- analysis (runs in the benchmark process) -----------------------------------

# name -> (unit, better, span names it is computed from): the per-layer
# metrics in BENCHMARK.json, in order.  A metric none of whose spans
# occurred is marked absent; the process metrics come from rusage.
LAYER_METRICS = {
    "grid.fft_slices_per_step": ("count", "lower", ("grid.fft",)),
    "grid.ifft_slices_per_step": ("count", "lower", ("grid.ifft",)),
    "grid.fft_ms_per_step": ("ms", "lower", ("grid.fft", "grid.ifft")),
    "grid.fft_mb_per_step_computed": ("MB", "lower", ("grid.fft", "grid.ifft")),
    "operators.drift_calls_per_step": ("count", "lower", ("operators.coupling_drift_spec",)),
    "operators.drift_ms_per_step": ("ms", "lower", ("operators.coupling_drift_spec",)),
    "operators.drift_self_ms_per_step": ("ms", "lower", ("operators.coupling_drift_spec",)),
    "operators.leray_ms_per_step": ("ms", "lower", ("operators.leray_project_spec",)),
    "stepper.step_ms_p50": ("ms", "lower", ("stepper.step",)),
    "stepper.step_ms_p90": ("ms", "lower", ("stepper.step",)),
    "stepper.self_ms_per_step": ("ms", "lower", ("stepper.step",)),
    "stepper.diffusion_ms_per_step": ("ms", "lower", ("stepper.diffuse_spec",)),
    "stepper.reaction_ms_per_step": ("ms", "lower", ("stepper.gl_reaction_phys",)),
    "stepper.rotation_ms_per_step": ("ms", "lower", ("stepper.rotate_phys",)),
    "stepper.substeps_per_step": ("count", "lower", ("stepper.step",)),
    "stepper.level_max": ("count", "lower", ("stepper.step",)),
    "noise.sample_calls_per_step": ("count", "lower", ("noise.sample_increment",)),
    "noise.sample_ms_per_step": ("ms", "lower", ("noise.sample_increment",)),
    "noise.draws_per_applied": ("ratio", "lower", ("noise.sample_increment", "stepper.step")),
    "diagnostics.report_ms_per_step": ("ms", "lower", ("diagnostics.energy_report",)),
    "diagnostics.report_self_ms_per_step": ("ms", "lower", ("diagnostics.energy_report",)),
    "diagnostics.covering_ms_per_step": ("ms", "lower", ("diagnostics.local_maxima",)),
    "experiments.driver_self_ms_per_step": ("ms", "lower", _DRIVERS),
    "experiments.distance_ms_per_step": ("ms", "lower", ("experiments.sobolev_norm",)),
    "io_cli.config_ms": ("ms", "lower", ("io_cli.load_config",)),
    "io_cli.build_ms": ("ms", "lower", ("io_cli.build_components",)),
    "io_cli.format_ms_per_row": ("ms", "lower", ("io_cli.format_report",)),
    "io_cli.rows_written": ("count", "lower", ("io_cli.format_report",)),
    "io_cli.bytes_written": ("B", "lower", ("io_cli.format_report",)),
    "io_cli.checkpoint_ms_per_write": ("ms", "lower", ("io_cli.save_checkpoint",)),
    "io_cli.checkpoint_bytes": ("B", "lower", ("io_cli.save_checkpoint",)),
    "process.cpu_per_wall": ("ratio", "lower", ()),
    "process.trace_overhead": ("ratio", "lower", ()),
}


class _Totals:
    """Sums over the spans of several traced calls."""

    def __init__(self):
        self.time = {}     # span name -> ns, inside a driver span
        self.self = {}     # span name -> self ns, inside a driver span
        self.count = {}    # span name -> calls, inside a driver span
        self.io_time = {}  # span name -> ns, anywhere in the call
        self.io_count = {}
        self.fft_slices = {"grid.fft": 0, "grid.ifft": 0}
        self.fft_bytes = 0
        self.step_ms = []
        self.substeps = 0
        self.level_max = 0
        self.row_bytes = 0
        self.checkpoint_bytes = 0
        self.names_seen = set()

    def add_call(self, spans: list):
        durations = [s[2] - s[1] for s in spans]
        parents = [s[3] for s in spans]
        selfs = self_times(durations, parents)
        in_driver = [False] * len(spans)
        for i, span in enumerate(spans):
            name, parent = span[0], span[3]
            self.names_seen.add(name)
            if parent >= 0:
                in_driver[i] = in_driver[parent] or spans[parent][0] in _DRIVERS
            self.io_time[name] = self.io_time.get(name, 0) + durations[i]
            self.io_count[name] = self.io_count.get(name, 0) + 1
            if name == "io_cli.format_report" and len(span) > 4:
                self.row_bytes += span[4]
            elif name == "io_cli.save_checkpoint" and len(span) > 4:
                self.checkpoint_bytes += span[4]
            if not (in_driver[i] or name in _DRIVERS):
                continue
            self.time[name] = self.time.get(name, 0) + durations[i]
            self.self[name] = self.self.get(name, 0) + selfs[i]
            self.count[name] = self.count.get(name, 0) + 1
            if name in self.fft_slices and len(span) > 4:
                self.fft_slices[name] += span[4]
                self.fft_bytes += span[5]
            elif name == "stepper.step":
                self.step_ms.append(durations[i] / 1e6)
                if len(span) > 4:
                    self.substeps += span[4]
                    self.level_max = max(self.level_max, span[5])


def layer_metrics(calls, path_steps: int, cpu_per_wall: float,
                  trace_overhead: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced calls, each a (spans, absent) pair.

    ``path_steps`` is the logical path-step count of one call.  Per-step
    metrics count only spans inside a driver (run_path, run_ensemble,
    run_coupled_family); per-call io_cli metrics count every span.  Returns
    the metric values and the metrics marked absent: their wrapped name is
    gone, or no call reached it.  An absent metric reads 0.
    """
    tot = _Totals()
    for spans, _ in calls:
        tot.add_call(spans)
    n_calls = max(1, len(calls))
    steps = path_steps * n_calls

    def ms(name):
        return tot.time.get(name, 0) / 1e6

    def self_ms(*names):
        return sum(tot.self.get(n, 0) for n in names) / 1e6

    def n(name):
        return tot.count.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    samples = tot.step_ms
    m = {
        "grid.fft_slices_per_step": per_step(tot.fft_slices["grid.fft"], steps),
        "grid.ifft_slices_per_step": per_step(tot.fft_slices["grid.ifft"], steps),
        "grid.fft_ms_per_step": per_step(ms("grid.fft") + ms("grid.ifft"), steps),
        "grid.fft_mb_per_step_computed": per_step(tot.fft_bytes / 1e6, steps),
        "operators.drift_calls_per_step": per_step(n("operators.coupling_drift_spec"), steps),
        "operators.drift_ms_per_step": per_step(ms("operators.coupling_drift_spec"), steps),
        "operators.drift_self_ms_per_step":
            per_step(self_ms("operators.coupling_drift_spec"), steps),
        "operators.leray_ms_per_step": per_step(ms("operators.leray_project_spec"), steps),
        "stepper.step_ms_p50": percentile(samples, 50.0) if samples else 0.0,
        # p90 needs ten samples beyond it, i.e. at least 100 steps
        "stepper.step_ms_p90": percentile(samples, 90.0) if len(samples) >= 100 else 0.0,
        "stepper.self_ms_per_step": per_step(self_ms("stepper.step"), steps),
        "stepper.diffusion_ms_per_step": per_step(ms("stepper.diffuse_spec"), steps),
        "stepper.reaction_ms_per_step": per_step(ms("stepper.gl_reaction_phys"), steps),
        "stepper.rotation_ms_per_step": per_step(ms("stepper.rotate_phys"), steps),
        "stepper.substeps_per_step": per_step(tot.substeps, steps),
        "stepper.level_max": float(tot.level_max),
        "noise.sample_calls_per_step": per_step(n("noise.sample_increment"), steps),
        "noise.sample_ms_per_step": per_step(ms("noise.sample_increment"), steps),
        "noise.draws_per_applied": ratio(n("noise.sample_increment"), tot.substeps),
        "diagnostics.report_ms_per_step": per_step(ms("diagnostics.energy_report"), steps),
        "diagnostics.report_self_ms_per_step":
            per_step(self_ms("diagnostics.energy_report"), steps),
        "diagnostics.covering_ms_per_step": per_step(ms("diagnostics.local_maxima"), steps),
        "experiments.driver_self_ms_per_step": per_step(self_ms(*_DRIVERS), steps),
        "experiments.distance_ms_per_step": per_step(ms("experiments.sobolev_norm"), steps),
        "io_cli.config_ms": tot.io_time.get("io_cli.load_config", 0) / 1e6 / n_calls,
        "io_cli.build_ms": tot.io_time.get("io_cli.build_components", 0) / 1e6 / n_calls,
        "io_cli.format_ms_per_row": ratio(tot.io_time.get("io_cli.format_report", 0) / 1e6,
                                          tot.io_count.get("io_cli.format_report", 0)),
        "io_cli.rows_written": tot.io_count.get("io_cli.format_report", 0) / n_calls,
        "io_cli.bytes_written": tot.row_bytes / n_calls,
        "io_cli.checkpoint_ms_per_write":
            ratio(tot.io_time.get("io_cli.save_checkpoint", 0) / 1e6,
                  tot.io_count.get("io_cli.save_checkpoint", 0)),
        "io_cli.checkpoint_bytes": ratio(tot.checkpoint_bytes,
                                         tot.io_count.get("io_cli.save_checkpoint", 0)),
        "process.cpu_per_wall": cpu_per_wall,
        "process.trace_overhead": trace_overhead,
    }
    absent = [name for name, (_, _, sources) in LAYER_METRICS.items()
              if sources and not any(s in tot.names_seen for s in sources)]
    if len(samples) < 100 and "stepper.step_ms_p90" not in absent:
        absent.append("stepper.step_ms_p90")
    return m, absent


def load_record(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
