"""Arithmetic shared by the benchmark: order statistics, span self time,
per-step normalisation, windowed step rates and error rates.

Everything here is pure Python on plain lists so the unit tests in
``perfbench/tests`` can check it without running the simulator.
"""

from __future__ import annotations

import math
import statistics

# Candidate percentiles for the reported tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One value is its own median and quartiles.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("quartiles of an empty sample")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def tail_percentile(n_samples: int) -> float | None:
    """Highest candidate percentile with at least ten samples beyond it.

    With n samples, percentile p leaves n * (1 - p/100) samples above it;
    a tail estimate resting on fewer than ten is not reported.
    """
    for p in TAIL_CANDIDATES:
        if n_samples * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(vals) - 1e-9))
    return vals[rank - 1]


def self_times(durations, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  Spans
    come from nested calls on one thread, so a span's direct children never
    overlap and their durations simply add.
    """
    out = [float(d) for d in durations]
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= durations[i]
    return out


def per_step(total: float, path_steps: int) -> float:
    """A total spread over the logical path-steps that produced it."""
    if path_steps < 1:
        raise ValueError(f"need at least one path-step, got {path_steps}")
    return total / path_steps


def path_steps(n_steps: int, n_paths: int = 1, n_members: int = 1) -> int:
    """Logical path-steps of one CLI call.

    A single run is one path; an ensemble has ``n_paths`` paths; a coupled
    family advances ``n_members`` epsilon members on each of ``n_paths``
    paths, and every member-step counts as one path-step.
    """
    return n_steps * n_paths * n_members


def window_edges(times, window: float) -> list[tuple[int, int]]:
    """Consecutive windows over ascending ``times``, each at least ``window`` long.

    A window (a, b) runs from times[a] to the first times[b] at least
    ``window`` later; a tail shorter than ``window`` joins the window before
    it, and fewer than two times give no window.
    """
    if len(times) < 2:
        return []
    edges = [0]
    for i in range(1, len(times)):
        if times[i] - times[edges[-1]] >= window:
            edges.append(i)
    last = len(times) - 1
    if edges[-1] != last:
        if len(edges) > 1:
            edges[-1] = last
        else:
            edges.append(last)
    return list(zip(edges, edges[1:]))


def window_rates(starts, end: float, steps_per_call: float, window: float,
                 probes, probe_times, probe_ref: float) -> list[float]:
    """Step rates of a step loop over consecutive windows of at least
    ``window`` seconds, scaled to a reference core speed.

    Step call i's interval starts at ``starts[i]`` (s, ascending) and runs
    to the next start, so a window holds whole steps with the work done
    between them; the last interval ends at ``end``.  Each step call
    advances ``steps_per_call`` path-steps.

    Interval i opens with a speed probe that took ``probes[i]`` seconds, of
    which ``probe_times[i]`` were timed.  The probe time is taken out of
    the window, and the rate is scaled to a core on which the timed probe
    takes ``probe_ref`` seconds: rate * mean timed probe / probe_ref.  The
    probe runs on the same core just before each step, so the scaling
    cancels the core's speed at that moment and keeps the program's own.
    """
    bounds = [float(t) for t in starts] + [float(end)]
    rates = []
    for a, b in window_edges(bounds, window):
        busy = bounds[b] - bounds[a] - sum(probes[a:b])
        timed = sum(probe_times[a:b]) / (b - a)
        rates.append((b - a) * steps_per_call / busy * timed / probe_ref)
    return rates


def error_rate(attempted: int, failed: int) -> float:
    """Failed invocations over attempted ones."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted invocation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside [0, {attempted}]")
    return failed / attempted
