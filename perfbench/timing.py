"""Timing on a shared machine: every timed call is scaled by reference work
timed right next to it.

On a shared machine the speed of a core drifts with the work beside it: on a
2-core virtual machine (Python 3.11.7) a fixed interpreter loop took from
0.25 s to 0.39 s within a quarter of an hour, with CPU time equal to wall
time. A run-to-run comparison of raw seconds then measures the neighbours.
So each call is bracketed by reference work that does not depend on sepsim,
and its seconds are scaled by REF_S over the mean of the two reference times:
the figures are seconds at the speed at which the reference work takes REF_S.
In-process calls are bracketed by a short interpreter loop, CLI processes by
an interpreter that imports the standard-library modules sepsim imports.
Each item's time is then the median of its repeats.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

LOOP_ITERATIONS = 40000
LOOP_REF_S = 0.004
START_REF_S = 0.08
BARE_REF_S = 0.05


def loop_reference():
    """Seconds for a fixed piece of interpreter work (dict stores and integer
    arithmetic, like the program's own loops)."""
    table = {}
    t0 = time.perf_counter()
    for i in range(LOOP_ITERATIONS):
        table[i & 255] = i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Times calls, each scaled by the reference work before and after it."""

    def __init__(self, reference=loop_reference, ref_s=LOOP_REF_S):
        self.reference = reference
        self.ref_s = ref_s
        self.last = reference()
        self.raw = self.scaled = 0.0

    def call(self, fn, *args, **kwargs):
        before = self.last
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.raw = time.perf_counter() - t0
            self.last = self.reference()
            self.scaled = self.raw * 2 * self.ref_s / (before + self.last)


# What a CLI reference process runs: the standard-library modules sepsim
# imports, so that the reference does the same kind of work as the start of
# a sepsim process (finding, reading and executing modules).
START_REFERENCE_CODE = "import argparse, bisect, dataclasses, hashlib, re, threading"


def start_clock(env, code=START_REFERENCE_CODE, ref_s=START_REF_S):
    """A clock for CLI processes: the reference is an interpreter that runs
    `code` in the same environment."""

    def reference_start():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return time.perf_counter() - t0

    return Clock(reference_start, ref_s)


class Tally:
    """Scaled verdict times and checked outcomes of one run."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: dict[str, list[float]] = {}
        self.pass_walls: list[float] = []
        self.raw_pass_walls: list[float] = []
        self.attempted = 0
        self.errors: list[tuple[str, str]] = []

    def merge(self, other):
        """Count another tally's verdicts in this one."""
        self.attempted += other.attempted
        self.errors += other.errors

    def typical(self):
        """Each item's median repeat."""
        return {name: statistics.median(v) for name, v in self.samples.items()}

    def verdict(self, wl, item, in_process):
        """Run one item and check its outcome; returns its scaled and raw
        seconds."""
        clock = self.clock
        try:
            outcome = clock.call(wl.execute, item, in_process)
            err = wl.check(item, outcome)
        except Exception as exc:  # any failure of the program is a wrong verdict
            err = f"raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        self.samples.setdefault(item.name, []).append(clock.scaled)
        if err:
            self.errors.append((item.name, err))
        return clock.scaled, clock.raw


def run_passes(wl, rng, tally, seconds=0.0, min_passes=1, max_passes=None,
               in_process=False, tracer=None):
    """Closed loop over seed-shuffled passes: at least `min_passes` complete
    passes, then more until `seconds` have passed or `max_passes` are done.
    With a tracer, returns each complete pass's layer totals, the times
    scaled by the pass's mean scale."""
    per_pass = []
    deadline = time.perf_counter() + seconds
    done = 0
    while max_passes is None or done < max_passes:
        if done >= min_passes and time.perf_counter() >= deadline:
            break
        units = list(wl.units)
        rng.shuffle(units)
        busy = raw = 0.0
        complete = True
        if tracer is not None:
            tracer.reset()
        for unit in units:
            if done >= min_passes and time.perf_counter() >= deadline:
                complete = False
                break
            for item in unit:
                if tracer is not None:
                    tracer.item = item.name
                scaled, seconds_raw = tally.verdict(wl, item, in_process)
                busy += scaled
                raw += seconds_raw
        if complete:
            done += 1
            tally.pass_walls.append(busy)
            tally.raw_pass_walls.append(raw)
            if tracer is not None:
                scale = busy / raw
                self_s = {k: v * scale for k, v in tracer.self_s.items()}
                per_pass.append((self_s, dict(tracer.calls)))
    return per_pass
