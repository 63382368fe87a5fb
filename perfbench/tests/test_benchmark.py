"""Unit tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np  # noqa: E402

from run import END_TO_END, Tally  # noqa: E402
from stats import (  # noqa: E402
    error_rate,
    path_steps,
    per_step,
    percentile,
    quartiles,
    self_times,
    tail_percentile,
    window_edges,
    window_rates,
)
from tracer import (  # noqa: E402
    _FFT2_EXTRA,
    LAYER_METRICS,
    PLAIN_WRAPS,
    WRAPS,
    Recorder,
    _fft_extra,
    install,
    layer_metrics,
)
from workloads import WORKLOADS  # noqa: E402

MS = 1_000_000  # ns


def span(name, t0_ms, t1_ms, parent, *extra):
    return [name, t0_ms * MS, t1_ms * MS, parent, *extra]


class SelfTime(unittest.TestCase):
    def test_direct_children_only(self):
        # root 0..10 holds a 1..4 and b 5..9; a holds c 2..3
        durations = [10, 3, 4, 1]
        parents = [-1, 0, 0, 1]
        self.assertEqual(self_times(durations, parents), [3.0, 2.0, 4.0, 1.0])

    def test_layer_self_time_from_nested_spans(self):
        # run_path 0..20 > step 1..11 > (drift 2..8 > fft 3..5), sample 9..10;
        # energy_report 12..18 > fft 13..14
        spans = [
            span("experiments.run_path", 0, 20, -1),
            span("stepper.step", 1, 11, 0, 1, 0),
            span("operators.coupling_drift_spec", 2, 8, 1),
            span("grid.fft", 3, 5, 2, 3, 1000),
            span("noise.sample_increment", 9, 10, 1),
            span("diagnostics.energy_report", 12, 18, 0),
            span("grid.ifft", 13, 14, 5, 6, 2000),
        ]
        m, _ = layer_metrics([(spans, [])], path_steps=1, cpu_per_wall=1.0,
                             trace_overhead=1.0)
        self.assertAlmostEqual(m["operators.drift_ms_per_step"], 6.0)
        self.assertAlmostEqual(m["operators.drift_self_ms_per_step"], 4.0)
        self.assertAlmostEqual(m["stepper.self_ms_per_step"], 10.0 - 6.0 - 1.0)
        self.assertAlmostEqual(m["diagnostics.report_self_ms_per_step"], 5.0)
        self.assertAlmostEqual(m["experiments.driver_self_ms_per_step"], 20.0 - 10.0 - 6.0)
        self.assertAlmostEqual(m["grid.fft_ms_per_step"], 3.0)
        self.assertEqual(m["grid.fft_slices_per_step"], 3)
        self.assertEqual(m["grid.ifft_slices_per_step"], 6)
        self.assertAlmostEqual(m["grid.fft_mb_per_step_computed"], 3000 / 1e6)

    def test_spans_outside_drivers_are_not_per_step(self):
        spans = [
            span("io_cli.build_components", 0, 5, -1),
            span("grid.fft", 1, 2, 0, 5, 100),
            span("experiments.run_path", 6, 8, -1),
        ]
        m, _ = layer_metrics([(spans, [])], path_steps=1, cpu_per_wall=1.0,
                             trace_overhead=1.0)
        self.assertEqual(m["grid.fft_slices_per_step"], 0)
        self.assertAlmostEqual(m["io_cli.build_ms"], 5.0)


class Percentiles(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(99), 50.0)
        self.assertEqual(tail_percentile(100), 90.0)
        self.assertEqual(tail_percentile(999), 90.0)
        self.assertEqual(tail_percentile(1000), 99.0)
        self.assertEqual(tail_percentile(10000), 99.9)

    def test_nearest_rank_leaves_the_tail_beyond(self):
        values = list(range(100, 0, -1))
        self.assertEqual(percentile(values, 90.0), 90.0)
        self.assertEqual(sum(v > percentile(values, 90.0) for v in values), 10)
        self.assertEqual(percentile(values, 50.0), 50.0)
        self.assertEqual(percentile([7.0], 90.0), 7.0)

    def test_quartiles_follow_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
        q1, med, q3 = quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_p90_needs_a_hundred_steps(self):
        steps = [span("experiments.run_path", 0, 1000, -1)]
        steps += [span("stepper.step", i, i + 1, 0, 1, 0) for i in range(99)]
        m, absent = layer_metrics([(steps, [])], path_steps=99, cpu_per_wall=1.0,
                                  trace_overhead=1.0)
        self.assertEqual(m["stepper.step_ms_p90"], 0.0)
        self.assertIn("stepper.step_ms_p90", absent)


class Normalisation(unittest.TestCase):
    def test_family_member_steps(self):
        self.assertEqual(path_steps(40, n_paths=2, n_members=4), 320)
        fam = WORKLOADS["family-n64"]
        self.assertEqual(fam.path_steps, fam.n_steps * 2 * 4)
        self.assertEqual(WORKLOADS["ensemble-n32"].path_steps,
                         WORKLOADS["ensemble-n32"].n_steps * 16)
        self.assertEqual(WORKLOADS["run-n128"].path_steps, WORKLOADS["run-n128"].n_steps)

    def test_per_step_over_calls(self):
        self.assertEqual(per_step(640.0, 320), 2.0)
        with self.assertRaises(ValueError):
            per_step(1.0, 0)
        # two traced calls of 2 path-steps: 4 samples per 4 path-steps
        call = [span("experiments.run_coupled_family", 0, 10, -1),
                span("noise.sample_increment", 1, 2, 0),
                span("stepper.step", 2, 4, 0, 1, 0),
                span("noise.sample_increment", 2, 3, 2),
                span("stepper.step", 4, 6, 0, 1, 0),
                span("noise.sample_increment", 4, 5, 4)]
        m, _ = layer_metrics([(call, []), (call, [])], path_steps=2, cpu_per_wall=1.0,
                             trace_overhead=1.0)
        self.assertEqual(m["noise.sample_calls_per_step"], 1.5)
        self.assertEqual(m["noise.draws_per_applied"], 1.5)
        self.assertEqual(m["stepper.substeps_per_step"], 1.0)


class ErrorRate(unittest.TestCase):
    def test_counting(self):
        tally = Tally()
        self.assertTrue(tally.record("a", []))
        self.assertFalse(tally.record("b", ["exit code 2", "rows"]))
        self.assertTrue(tally.record("c", []))
        self.assertEqual((tally.attempted, tally.failed), (3, 1))
        self.assertEqual(error_rate(tally.attempted, tally.failed), 1 / 3)
        self.assertEqual(len(tally.problems), 2)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            error_rate(0, 0)
        with self.assertRaises(ValueError):
            error_rate(2, 3)


class WindowRates(unittest.TestCase):
    def test_windows_hold_whole_steps_and_the_tail_joins_the_last(self):
        times = [0.1 * i for i in range(11)]
        # windows 0-0.3, 0.3-0.6, then 0.6-1.0 with the 0.9-1.0 tail
        self.assertEqual(window_edges(times, 0.25), [(0, 3), (3, 6), (6, 10)])

    def test_uneven_steps(self):
        # steps of 0.1, 0.1, 0.4: the first window needs the second step
        self.assertEqual(window_edges([0.0, 0.1, 0.2, 0.6], 0.15), [(0, 2), (2, 3)])

    def test_probe_time_is_left_out_and_scales_the_rate(self):
        # two windows of two steps, each step interval opening with a 0.1 s probe
        # of which 0.04 s were timed
        rates = window_rates([0.0, 1.0, 2.0, 3.0], 4.0, 1.0, 1.5,
                             probes=[0.1] * 4, probe_times=[0.04] * 4, probe_ref=0.02)
        self.assertEqual(len(rates), 2)
        for r in rates:
            self.assertAlmostEqual(r, 2 / 1.8 * 0.04 / 0.02)

    def test_a_core_at_half_speed_reads_the_same_scaled_rate(self):
        starts, probes = [0.0, 0.3, 0.5, 1.1, 1.4], [0.01, 0.02, 0.01, 0.03, 0.01]
        fast = window_rates(starts, 2.0, 1.0, 0.4, probes=probes,
                            probe_times=[t / 2 for t in probes], probe_ref=0.01)
        slow = window_rates([2 * t for t in starts], 4.0, 1.0, 0.8,
                            probes=[2 * t for t in probes], probe_times=probes,
                            probe_ref=0.01)
        self.assertEqual(len(fast), len(slow))
        for f, sl in zip(fast, slow):
            self.assertAlmostEqual(f, sl)

    def test_loop_shorter_than_a_window_is_one_window(self):
        self.assertEqual(window_edges([0.0, 0.5, 1.0], 5.0), [(0, 2)])
        self.assertEqual(window_edges([1.0], 0.5), [])


class Tracer(unittest.TestCase):
    def test_plain_calls_wrap_only_the_traced_step(self):
        self.assertEqual([(m, a, n) for m, a, n, _ in PLAIN_WRAPS],
                         [("nsgl.experiments", "step", "stepper.step")])
        self.assertIn(PLAIN_WRAPS[0][:3], [wrap[:3] for wrap in WRAPS])

    def test_missing_names_are_absent_not_fatal(self):
        rec = Recorder()
        absent = install(rec, (
            ("perfbench_no_such_module", "f", "x", None),
            ("statistics", "no_such_function", "y", None),
            ("statistics", "NormalDist.no_such_method", "z", None),
        ))
        self.assertEqual(absent, ["perfbench_no_such_module.f",
                                  "statistics.no_such_function",
                                  "statistics.NormalDist.no_such_method"])
        self.assertEqual(rec.spans, [])

    def test_wrapper_is_transparent_and_records_nesting(self):
        rec = Recorder()
        inner = rec.wrap(lambda x: x + 1, "inner")
        outer = rec.wrap(lambda x: inner(x) * 2, "outer")
        self.assertEqual(outer(3), 8)
        self.assertEqual([s[0] for s in rec.spans], ["outer", "inner"])
        self.assertEqual([s[3] for s in rec.spans], [-1, 0])
        failing = rec.wrap(lambda: 1 / 0, "fails")
        with self.assertRaises(ZeroDivisionError):
            failing()
        self.assertEqual(rec.spans[-1][0], "fails")

    def test_fft_slices_count_half_spectrum_transforms_alike(self):
        a = np.zeros((3, 32, 32))
        self.assertEqual(_FFT2_EXTRA((a,), {"axes": (-2, -1)}, np.fft.fft2(a))[0], 3)
        self.assertEqual(_FFT2_EXTRA((a,), {}, np.fft.rfft2(a))[0], 3)
        half = np.fft.rfft2(a)
        self.assertEqual(_FFT2_EXTRA((half,), {}, np.fft.irfft2(half))[0], 3)
        self.assertEqual(_fft_extra((a[0],), {}, np.fft.fftn(a[0]))[0], 1)
        self.assertEqual(_fft_extra((a,), {"axes": (1, 2)}, np.fft.fftn(a, axes=(1, 2)))[0], 3)
        self.assertEqual(_fft_extra((a,), {}, np.fft.fftn(a))[0], 1)
        out = np.fft.fft2(a)
        self.assertEqual(_FFT2_EXTRA((a,), {}, out)[1], a.nbytes + out.nbytes)

    def test_metric_names_cover_every_layer(self):
        layers = {name.split(".")[0] for name in LAYER_METRICS}
        self.assertEqual(layers, {"grid", "operators", "stepper", "noise", "diagnostics",
                                  "experiments", "io_cli", "process"})


class BenchmarkFile(unittest.TestCase):
    def test_lists_what_the_benchmark_reports(self):
        path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]],
                         [(n, u, b) for n, (u, b) in END_TO_END.items()])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]],
                         [(n, u, b) for n, (u, b, _) in LAYER_METRICS.items()])
        self.assertEqual([(w["name"], w["why"]) for w in doc["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])


if __name__ == "__main__":
    unittest.main()
