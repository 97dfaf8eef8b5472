#!/usr/bin/env python3
"""sepsim benchmark: one workload per run, a closed loop with one client.

    python3 perfbench/run.py --workload oracle-corpora --seed 1 --seconds 30 --trace 0

Run from the repository root. The run builds the workload's inputs (timed as
set-up, several times), then visits the pool in a seed-shuffled order, pass
after pass, until `--seconds` have passed; the first pass always completes.
Each item starts after the previous verdict, and each verdict is checked
against its known answer (see workloads.py). The last line of standard output
is one JSON object: correct, attempted, failed and metrics.

Every timed call is scaled to a reference machine speed by reference work
timed right next to it, and each item's time is the median of its repeats
(see timing.py). With --trace 0 the metrics are the end-to-end ones: setup_s
(median of several set-ups), wall_s (one pass, first item to last verdict),
verdict_ms_p50 and verdict_ms_tail over the items' times, and peak_rss_mb.
With --trace 1 the run makes three untraced passes, then traced passes until
`--seconds` have passed since the first, and reports per-layer self times and
work counts per pass (see tracing.py), the tracing overhead, and for
cli-fixtures the CLI process and import costs.

Every result is also written to .bench_out/ with nproc, the Python version,
the seed and the git commit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

from timing import BARE_REF_S, Clock, Tally, run_passes, start_clock
from tracing import PACKAGE_MODULES, Tracer
from workloads import OUT_DIR, REFERENCE, ROOT, WHY, Workload

WORKLOADS = tuple(WHY)
SETUP_REPEATS = 5
IMPORT_PROBES = 7

# Per-layer metrics: name -> (unit, how it is read from one traced pass).
# "self:<span>" is the span's self time, "calls:<span>" its call count,
# "per_item:<span>" its calls per item. Which end-to-end figure each should
# move, and where:
# - scenario.*, trace.* and verify.<construction>.self_s: verdict_ms_p50 on
#   oracle-corpora and cli-fixtures; trace.bytes: peak_rss_mb.
# - anticomplete.*, upclosure.*, functionals.*, enumcore.*: wall_s on
#   oracle-corpora (upclosure also verdict_ms_p50); nothing on
#   nosupermax-horizon.
# - twodegrees.*: verdict_ms_tail on oracle-corpora.
# - nosupermax.*: wall_s, verdict_ms_tail and the horizon slope on
#   nosupermax-horizon, and its setup_s through the certificate chains;
#   nothing on oracle-corpora.
# - cli.*: verdict_ms_p50 on cli-fixtures; nothing in-process.
LAYER_METRICS = {
    "scenario.parse_s": ("s", "self:scenario.parse"),
    "scenario.audit_s": ("s", "self:scenario.audit"),
    "scenario.canonical_calls": ("count/item", "per_item:scenario.canonical"),
    "trace.encode_s": ("s", "self:trace.encode"),
    "trace.render_s": ("s", "self:trace.render"),
    "trace.parse_s": ("s", "self:trace.parse"),
    "trace.bytes": ("count", "calls:trace.bytes"),
    "verify.anticomplete.self_s": ("s", "self:verify.anticomplete"),
    "verify.upclosure.self_s": ("s", "self:verify.upclosure"),
    "verify.nosupermax.self_s": ("s", "self:verify.nosupermax"),
    "verify.twodegrees.self_s": ("s", "self:verify.twodegrees"),
    "anticomplete.run_s": ("s", "self:anticomplete.run"),
    "anticomplete.verify_s": ("s", "self:anticomplete.verify"),
    "upclosure.pipeline_s": ("s", "self:upclosure.pipeline"),
    "upclosure.recover_s": ("s", "self:upclosure.recover"),
    "upclosure.decode_block_s": ("s", "self:upclosure.decode_block"),
    "upclosure.agreement_table_s": ("s", "self:upclosure.agreement_table"),
    "upclosure.audit_s": ("s", "self:upclosure.audit"),
    "twodegrees.run_s": ("s", "self:twodegrees.run"),
    "twodegrees.verify_s": ("s", "self:twodegrees.verify"),
    "twodegrees.decode_s": ("s", "self:twodegrees.decode"),
    "functionals.evaluate_calls": ("count", "calls:functionals.evaluate"),
    "functionals.evaluate_s": ("s", "self:functionals.evaluate"),
    "functionals.wtt_apply_calls": ("count", "calls:functionals.wtt_apply"),
    "functionals.wtt_apply_s": ("s", "self:functionals.wtt_apply"),
    "enumcore.snapshot_calls": ("count", "calls:enumcore.snapshot"),
    "enumcore.snapshot_s": ("s", "self:enumcore.snapshot"),
    "nosupermax.run_s": ("s", "self:nosupermax.run"),
    "nosupermax.verify_s": ("s", "self:nosupermax.verify"),
    "nosupermax.speedup_s": ("s", "self:nosupermax.speedup"),
    "nosupermax.boundary_update_s": ("s", "self:nosupermax.boundary_update"),
    "nosupermax.x_update_s": ("s", "self:nosupermax.x_update"),
    "nosupermax.stages": ("count", "calls:nosupermax.step"),
    "nosupermax.full_steps": ("count", "calls:nosupermax.trigger_prefix"),
}
# Counts that must repeat exactly between traced passes and runs.
DETERMINISTIC = [n for n, (_, how) in LAYER_METRICS.items() if not how.startswith("self:")]

def git_commit():
    """The commit of the checkout, or "unknown" outside a git work tree."""
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def environment(args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": args.seed,
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# measuring


def tail(times):
    """The highest whole percentile with at least ten items beyond it, over
    the per-item times; the slowest item when the pool has fewer than twenty
    items."""
    values = sorted(times)
    n = len(values)
    if n < 20:
        return values[-1], 100, n
    pct = math.floor(100 - 1000 / n)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct, n


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup(wl, repeats):
    """Median seconds of `repeats` set-ups; the CLI set-up is mostly one
    interpreter start, so it is scaled like the CLI processes."""
    clock = start_clock(wl.env) if wl.cli else Clock()
    times = []
    for _ in range(repeats):
        clock.call(wl.setup)
        times.append(clock.scaled)
    return statistics.median(times)


def end_to_end(wl, args):
    setup_s = setup(wl, SETUP_REPEATS)
    tally = Tally(start_clock(wl.env) if wl.cli else Clock())
    run_passes(wl, random.Random(args.seed), tally, seconds=args.seconds)
    times = tally.typical()
    tail_s, pct, n = tail(list(times.values()))
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(times.values()), "s"),
        "verdict_ms_p50": (statistics.median(times.values()) * 1000, "ms"),
        "verdict_ms_tail": (tail_s * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    detail = {
        "tail_percentile": pct,
        "tail_items": n,
        "samples": tally.attempted,
        "passes": len(tally.pass_walls),
        "pass_walls_s": tally.pass_walls,
        "raw_pass_walls_s": tally.raw_pass_walls,
    }
    return tally, metrics, detail


# ---------------------------------------------------------------------------
# traced run


def layer_value(how, self_s, calls, items):
    kind, span = how.split(":", 1)
    if kind == "self":
        return self_s.get(span, 0.0)
    if kind == "per_item":
        return calls.get(span, 0) / items
    return calls.get(span, 0)


def horizon_slope(items, times):
    """Least-squares slope of log verdict time against log horizon, the
    time at each horizon summed over the swept scenarios present at every
    horizon; 0 when the pool sweeps no horizon."""
    swept = [i for i in items if i.sweep is not None]
    horizons = sorted({i.horizon for i in swept})
    seeds = [s for s in {i.sweep for i in swept}
             if len({i.horizon for i in swept if i.sweep == s}) == len(horizons)]
    if len(horizons) < 2 or not seeds:
        return 0.0
    totals = [
        sum(times[i.name] for i in swept if i.horizon == h and i.sweep in seeds)
        for h in horizons
    ]
    return statistics.linear_regression(
        [math.log(h) for h in horizons], [math.log(t) for t in totals]
    ).slope


def import_cost(env):
    """Fresh-process `import sepsim.cli` minus a bare interpreter start, in
    seconds at the reference speed: each import is scaled by the bare starts
    before and after it, and the median is taken."""
    clock = start_clock(env, "pass", BARE_REF_S)
    times = []
    for _ in range(IMPORT_PROBES):
        clock.call(subprocess.run, [sys.executable, "-c", "import sepsim.cli"],
                   env=env, check=True, timeout=120)
        times.append(clock.scaled)
    return statistics.median(times) - BARE_REF_S


def traced(wl, args):
    wl.setup()
    rng = random.Random(args.seed)
    deadline = time.perf_counter() + args.seconds
    # three untraced passes, the first of which also fills the package's
    # caches, then traced passes for the rest of the run's seconds
    tally = Tally(Clock())
    run_passes(wl, rng, tally, min_passes=3, max_passes=3, in_process=True)
    untraced_wall = sum(tally.typical().values())
    slope = horizon_slope(wl.items(), tally.typical())
    traced_tally = Tally(tally.clock)
    tracer = Tracer()
    tracer.bind()
    try:
        per_pass = run_passes(
            wl, rng, traced_tally, seconds=deadline - time.perf_counter(),
            in_process=True, tracer=tracer,
        )
    finally:
        tracer.unbind()
    traced_wall = sum(traced_tally.typical().values())
    tally.merge(traced_tally)
    items = len(wl.items())
    metrics = {}
    for name, (unit, how) in LAYER_METRICS.items():
        values = [layer_value(how, s, c, items) for s, c in per_pass]
        value = statistics.median(values) if how.startswith("self:") else values[0]
        metrics[name] = (value, unit)
    stages = metrics["nosupermax.stages"][0]
    full = metrics["nosupermax.full_steps"][0]
    metrics["nosupermax.fast_share"] = (1 - full / stages if stages else 0.0, "ratio")
    metrics["nosupermax.horizon_slope"] = (slope, "ratio")
    process_p50 = import_s = 0.0
    if wl.cli:
        procs = Tally(start_clock(wl.env))
        run_passes(wl, rng, procs, max_passes=1)
        tally.merge(procs)
        process_p50 = statistics.median(procs.typical().values()) * 1000
        import_s = import_cost(wl.env)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.process_ms_p50"] = (process_p50, "ms")
    metrics["tracing.overhead_s"] = (traced_wall - untraced_wall, "s")
    repeat = all(
        layer_value(LAYER_METRICS[n][1], s, c, items) == metrics[n][0]
        for s, c in per_pass
        for n in DETERMINISTIC
    )
    detail = {
        "traced_passes": len(per_pass),
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "counts_repeat_across_passes": repeat,
        "span_calls": dict(sorted(per_pass[0][1].items())),
        "rebound_names": tracer.rebound,
        "spans_kept": len(tracer.spans),
    }
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.tsv"
    tracer.write_spans(spans_path)
    detail["spans_file"] = str(spans_path.relative_to(ROOT))
    return tally, metrics, detail


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(args, reference=None, fault_labels=None, tiny=False):
    """Run one workload; returns the result record (also used by the tests)."""
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    OUT_DIR.mkdir(exist_ok=True)
    wl = Workload(args.workload, reference, tiny=tiny, fault_labels=fault_labels)
    tally, metrics, detail = (traced if args.trace else end_to_end)(wl, args)
    return {
        "workload": args.workload,
        "why": WHY[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        **environment(args),
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "errors": tally.errors[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "sepsim" / "__init__.py").is_file() or not (
        ROOT / "scenarios" / "faults" / "manifest.txt"
    ).is_file():
        print("error: run from a sepsim checkout (src/sepsim and scenarios/ are missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for mod in PACKAGE_MODULES:  # import cost is not part of any verdict
        __import__(mod)
    result = measure(args)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for key in ("workload", "seed", "nproc", "python", "commit", "detail"):
        print(f"{key}: {json.dumps(result[key])}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, err in result["errors"]:
        print(f"verdict error: {name}: {err}")
    print(f"verdict_errors = {result['failed']} of {result['attempted']} attempted")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
