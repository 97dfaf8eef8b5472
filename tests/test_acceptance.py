"""Acceptance suite: one test per criterion, each printing its verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The corpora are built deterministically by sepsim.corpus; committed
fixtures live under scenarios/.
"""

import concurrent.futures
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cli_env import cli_env
from sepsim.corpus import (
    anticomplete_corpus,
    nosupermax_corpus,
    twodegrees_corpus,
    upclosure_scenario,
    wrong_cert_fixtures,
)
from sepsim.scenario import load_scenario
from sepsim.trace import parse_trace, run_scenario, run_upclosure_pipeline
from sepsim.upclosure import simultaneous_agreement_stages
from sepsim.verify import verify_trace

ROOT = Path(__file__).resolve().parents[1]
_cache = {}


def announce(num, name, passed, extra=""):
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {verdict}{extra}")
    assert passed, f"criterion {num} ({name}) failed"


def corpus_reports(kind):
    """Run and verify a corpus once; cache (scenario, trace, report) rows."""
    if kind in _cache:
        return _cache[kind], _cache[("time", kind)]
    build = {
        "anticomplete": anticomplete_corpus,
        "nosupermax": nosupermax_corpus,
        "twodegrees": twodegrees_corpus,
    }[kind]
    rows = []
    t0 = time.perf_counter()
    for name, sc in build(20, 1000):
        trace = run_scenario(sc)
        report = verify_trace(parse_trace(trace.render()))
        rows.append((name, sc, trace, report))
    elapsed = time.perf_counter() - t0
    _cache[kind] = rows
    _cache[("time", kind)] = elapsed
    return rows, elapsed


def failing(rows, *needles):
    out = []
    for name, sc, trace, report in rows:
        for c in report.checks:
            if not c.passed and any(n in c.name for n in needles):
                out.append(f"{name}: {c.line()}")
    return out


def upclosure_outcomes():
    if "upclosure" in _cache:
        return _cache["upclosure"], _cache[("time", "upclosure")]
    rows = []
    t0 = time.perf_counter()
    for case in (1, 2):
        for seed in range(100):
            sc = upclosure_scenario(seed, case)
            load_scenario(sc.canonical())  # hypothesis audits
            out = run_upclosure_pipeline(sc)
            rows.append((case, seed, sc, out))
    elapsed = time.perf_counter() - t0
    _cache["upclosure"] = rows
    _cache[("time", "upclosure")] = elapsed
    return rows, elapsed


class TestCriteria:
    def test_criterion_01_wtt_promise(self):
        rows, elapsed = corpus_reports("anticomplete")
        bad = failing(rows, "wtt-companion", "restraint-discipline")
        enumerating = 0
        for name, sc, trace, report in rows:
            enumerating += sum(
                1 for line in trace.body if " ract " in line and " b " in line
            )
        announce(
            1,
            "wtt-promise",
            len(rows) >= 20 and not bad and elapsed < 10.0,
            f" ({len(rows)} runs, {enumerating} copying acts,"
            f" {elapsed:.2f}s < 10s)",
        )

    def test_criterion_02_n_preservation(self):
        rows, _ = corpus_reports("anticomplete")
        bad = failing(rows, "n-preservation")
        announce(2, "preservation", not bad, f" ({len(rows)} runs)")

    def test_criterion_03_upclosure_round_trip(self):
        rows, elapsed = upclosure_outcomes()
        bad = []
        recovered = 0
        for case, seed, sc, out in rows:
            for n, bit, stage, expected in out["blocks"]:
                if bit != expected:
                    bad.append(f"case{case} seed {seed} block {n}")
            for idx, value, stage, direct in out["recovered"]:
                recovered += 1
                if value != direct:
                    bad.append(f"case{case} seed {seed} boundary {idx}")
        per_case = {1: 0, 2: 0}
        for case, _, _, _ in rows:
            per_case[case] += 1
        announce(
            3,
            "block round trip",
            not bad
            and per_case[1] >= 100
            and per_case[2] >= 100
            and elapsed < 30.0,
            f" ({per_case[1]}+{per_case[2]} scenarios, {recovered} boundary"
            f" recoveries, {elapsed:.2f}s < 30s)",
        )

    def test_criterion_04_mutual_exclusion(self):
        rows, _ = upclosure_outcomes()
        bad = []
        for case, seed, sc, out in rows:
            if out["z"] is None:
                continue
            a, b = sc.stage_set("A"), sc.stage_set("B")
            values = out["m_values"]
            for n in range(len(values) - 1):
                stages = simultaneous_agreement_stages(
                    out["z"], a, b, values[n], values[n + 1], sc.horizon
                )
                if len(stages) > 0:
                    bad.append(f"case{case} seed {seed} block {n}")
        announce(4, "mutual exclusion", not bad, f" ({len(rows)} scenarios)")

    def test_criterion_05_change_discipline(self):
        rows, elapsed = corpus_reports("nosupermax")
        bad = failing(
            rows, "change-discipline", "w-trigger-forward", "w-trigger-backward"
        )
        announce(
            5,
            "change discipline",
            len(rows) >= 20 and not bad,
            f" ({len(rows)} runs, {elapsed:.2f}s)",
        )

    def test_criterion_06_boundary_shape(self):
        rows, _ = corpus_reports("nosupermax")
        bad = failing(rows, "boundary-shape", "boundary-exactness")
        announce(6, "boundary shape", not bad, f" ({len(rows)} runs)")

    def test_criterion_07_speedup_soundness(self):
        rows, _ = corpus_reports("nosupermax")
        accepted = 0
        bad = failing(rows, "speedup-bullets", "cert-outcome-agrees")
        for name, sc, trace, report in rows:
            accepted += sum(1 for line in trace.body if line.endswith("accepted"))
        fixture_bad = []
        for name, sc, expect in wrong_cert_fixtures():
            trace = run_scenario(sc)
            cert_lines = [l for l in trace.body if l.startswith("cert ")]
            assert cert_lines, name
            got_accept = cert_lines[0].endswith("accepted")
            if got_accept != expect:
                fixture_bad.append(f"{name}: outcome {cert_lines[0]}")
            if not expect:
                witness = cert_lines[0].split()[3]
                if witness == "-":
                    fixture_bad.append(f"{name}: rejection carries no stage")
        announce(
            7,
            "speedup soundness",
            accepted >= 2 and not bad and not fixture_bad,
            f" ({accepted} accepted certificates, 5 labeled fixtures)",
        )

    def test_criterion_08_census_bounds(self):
        rows, elapsed = corpus_reports("twodegrees")
        bad = failing(rows, "block-census", "cube-census")
        announce(
            8,
            "census bounds",
            len(rows) >= 20 and not bad,
            f" ({len(rows)} runs, {elapsed:.2f}s)",
        )

    def test_criterion_09_coding_round_trips(self):
        rows, _ = corpus_reports("twodegrees")
        bad = failing(rows, "roundtrip-c-from-b", "roundtrip-b-from-c")
        announce(9, "coding round trips", not bad, f" ({len(rows)} runs)")

    def test_criterion_10_determinism(self, tmp_path):
        jobs = []
        for kind in ("anticomplete", "nosupermax", "twodegrees"):
            rows, _ = corpus_reports(kind)
            for name, sc, trace, report in rows:
                jobs.append((name, sc))
        for case in (1, 2):
            for seed in range(0, 100, 10):
                jobs.append((f"up{case}-{seed}", upclosure_scenario(seed, case)))
        for name, sc in jobs:
            (tmp_path / f"{name}.scn").write_text(sc.canonical())

        env = cli_env()

        def both(name):
            scn = tmp_path / f"{name}.scn"
            trc = tmp_path / f"{name}.trc"
            r1 = subprocess.run(
                [sys.executable, "-m", "sepsim", "run", "--scenario", str(scn),
                 "--trace-out", str(trc)],
                capture_output=True, text=True, env=env,
            )
            if r1.returncode != 0:
                return f"{name}: run failed {r1.stderr}"
            r2 = subprocess.run(
                [sys.executable, "-m", "sepsim", "replay", "--scenario",
                 str(scn), "--trace", str(trc)],
                capture_output=True, text=True, env=env,
            )
            if r2.returncode != 0:
                return f"{name}: replay mismatch"
            return None

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            bad = [r for r in pool.map(both, [n for n, _ in jobs]) if r]
        announce(
            10,
            "determinism",
            not bad,
            f" ({len(jobs)} scenarios, two processes each)",
        )

    def test_criterion_11_fault_injection(self):
        manifest = ROOT / "scenarios" / "faults" / "manifest.txt"
        rows = [
            line.split() for line in manifest.read_text().splitlines() if line
        ]
        bad = []
        names = set()
        for fname, expected in rows:
            text = (ROOT / "scenarios" / "faults" / fname).read_text()
            report = verify_trace(parse_trace(text))
            failed = {c.name: c.detail for c in report.failures()}
            names.add(expected)
            if expected not in failed:
                bad.append(f"{fname}: {expected} did not fail ({set(failed)})")
            bad.extend(
                f"{fname}: {name} names no counterexample"
                for name, detail in failed.items()
                if not detail
            )
        announce(
            11,
            "fault injection",
            len(rows) >= 30 and not bad,
            f" ({len(rows)} fixtures over {len(names)} named checks;"
            " the hole-permission verdict is exercised in-memory by the"
            " construction tests)",
        )
