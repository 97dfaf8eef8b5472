#!/usr/bin/env python3
"""Build the committed scenario samples and fault-injection fixtures.

Writes:
    scenarios/samples/*.scn      runnable sample scenarios
    scenarios/certs/*.scn        labeled certificate fixtures + labels.txt
    scenarios/faults/*.trc       corrupted traces + manifest.txt
    scenarios/reports/*/*.txt    the expected report of each sample's trace,
                                 certificate fixture's trace and fault trace

Every fault fixture is checked on the spot: its expected check must fail
under the verifier, and its base trace must verify clean. The test suite
compares the verifier's reports with the committed ones byte for byte. Run
from the repository root; the script is idempotent.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sepsim.corpus import (  # noqa: E402
    anticomplete_scenario,
    nosupermax_scenario,
    twodegrees_scenario,
    upclosure_scenario,
    wrong_cert_fixtures,
)
from sepsim.corpus import chain_certificates  # noqa: E402
from sepsim.enumcore import pair  # noqa: E402
from sepsim.functionals import bits_of, program_rows  # noqa: E402
from sepsim.scenario import Scenario, load_scenario  # noqa: E402
from sepsim.trace import parse_trace, run_scenario  # noqa: E402
from sepsim.upclosure import CaseTag  # noqa: E402
from sepsim.verify import verify_trace  # noqa: E402

OUT = ROOT / "scenarios"


def render(sc: Scenario) -> str:
    load_scenario(sc.canonical())
    return run_scenario(sc).render()


def lines_of(text):
    return text.rstrip("\n").split("\n")


def unlines(lines):
    return "\n".join(lines) + "\n"


def find(lines, pred, start=0):
    for i in range(start, len(lines)):
        if pred(lines[i]):
            return i
    raise AssertionError("fixture pattern not found")


# ---------------------------------------------------------------------------
# base scenarios


def base_anticomplete():
    return anticomplete_scenario(4, 120)


def base_anticomplete_quiet():
    return Scenario(construction="anticomplete", horizon=80)


def base_upclosure(case):
    return upclosure_scenario(11, case)


def covered_block_upclosure():
    """Case declared 1 with its first block fully covered: the mutual
    exclusion the decoder relies on genuinely fails."""
    table = [(x, x + 2) for x in range(40)]
    a = [(y, 1) for y in range(1, 11, 2)]
    b = [(y, 5 + y) for y in range(2, 11, 2)]
    a_mem = {y for y, _ in a}
    b_mem = {y for y, _ in b}

    def op_rows(source, target):
        """x answers whether it is in the target, guarded by the source's
        bits below f(x), all required to hold 1."""
        bits, pairs = bits_of(source), []
        for x, fx in table:
            guard = bits & ((1 << fx) - 1)
            pairs.append((x, (0, fx, guard, guard, 1 if x in target else 0)))
        return program_rows(pairs)

    return Scenario(
        construction="upclosure",
        horizon=40,
        sets={"A": a, "B": b, "C": []},
        rules={"gamma": op_rows(a_mem, b_mem), "delta": op_rows(b_mem, a_mem)},
        bound_table=table,
        case=CaseTag(1, 0),
    )


def base_chain(horizon=200):
    sc = nosupermax_scenario(1, horizon)
    sc.certs = chain_certificates(sc, want=2)
    assert len(sc.certs) == 2
    return sc


def lying_cert_scenario(horizon=200):
    """Everything above 10 except 150 enters the sets; a certificate claims
    the attempt failed right past the holes although position 150 witnesses
    the next boundary entry forever."""
    a, b = [], []
    for e in range(11, horizon + 10):
        if e == 150:
            continue
        t = max(1, e - 10)
        if t >= horizon:
            continue
        (a if e % 2 == 0 else b).append((e, t))
    sc = Scenario(construction="nosupermax", horizon=horizon,
                  sets={"A": a, "B": b})
    from sepsim.nosupermax import SpeedupCertificate

    sc.certs = [SpeedupCertificate(1, 10, 11, 1, 40)]
    return sc


def mixed_chain(horizon=1000):
    sc = nosupermax_scenario(3, horizon)  # sparse below a cutoff + cofinite
    certs = chain_certificates(sc, want=1)
    assert certs
    sc.certs = certs
    return sc


def base_twodegrees():
    from sepsim.corpus import prefix_rules

    return Scenario(
        construction="twodegrees",
        horizon=120,
        sets={"C": [(3, 70), (2, 90)], "K": [(2, 60)], "W0": [], "W1": []},
        rules={
            "phi0": prefix_rules([("0000", {27}, 0)], 60),
            "phi1": prefix_rules([("0000", {28}, 0)], 60),
        },
    )


def base_twodegrees_kill():
    from sepsim.corpus import prefix_rules

    return Scenario(
        construction="twodegrees",
        horizon=120,
        sets={"C": [(3, 80)], "K": [], "W0": [(2, 40)]},
        rules={
            "phi0": prefix_rules([("0000", {27}, 0), ("0010", {30}, 0)], 60),
        },
    )


# ---------------------------------------------------------------------------
# fixture edits: each returns (name, expected_check, corrupted_text)


def anticomplete_fixtures():
    out = []
    text = render(base_anticomplete())
    base = lines_of(text)

    def ract_with_b(lines):
        i = find(lines, lambda l: re.match(r"ev \d+ ract .* a .* b \d", l))
        return i

    # wtt-companion: strip the A-side of one copying act, fix final A
    lines = list(base)
    i = ract_with_b(lines)
    m = re.match(r"(ev (\d+) ract \d+ \d+ \d+ \d+) a (.*) b (.*)", lines[i])
    stage, a_elems = int(m.group(2)), m.group(3).split()
    lines[i] = f"{m.group(1)} a  b {m.group(4)}".replace("a  b", "a b")
    fi = find(lines, lambda l: l.startswith("final A"))
    fa = lines[fi].split()[2:]
    keep = [p for p in fa if p not in {f"{e}:{stage + 1}" for e in a_elems}]
    lines[fi] = ("final A " + " ".join(keep)).rstrip()
    out.append(("anticomplete-companion", "wtt-companion", unlines(lines)))

    # restraint-discipline: bump the recorded restraint
    lines = list(base)
    i = find(lines, lambda l: " ract " in l)
    parts = lines[i].split()
    parts[5] = str(int(parts[5]) + 1)
    lines[i] = " ".join(parts)
    out.append(("anticomplete-restraint", "restraint-discipline", unlines(lines)))

    # disjoint-ab: copy a B element into final A and into the act's A side
    lines = list(base)
    i = ract_with_b(lines)
    m = re.match(r"(ev (\d+) ract \d+ \d+ \d+ \d+) a (.*) b (.*)", lines[i])
    stage = int(m.group(2))
    b_first = m.group(4).split()[0]
    lines[i] = f"{m.group(1)} a {m.group(3)} {b_first} b {m.group(4)}"
    fi = find(lines, lambda l: l.startswith("final A"))
    lines[fi] = lines[fi] + f" {b_first}:{stage + 1}"
    out.append(("anticomplete-disjoint", "disjoint-ab", unlines(lines)))

    # entry-bound: enumerate an element at or above its stage
    lines = list(base)
    i = ract_with_b(lines)
    m = re.match(r"(ev (\d+) ract \d+ \d+ \d+ \d+) a (.*) b (.*)", lines[i])
    stage = int(m.group(2))
    lines[i] = f"{m.group(1)} a {m.group(3)} {stage} b {m.group(4)}"
    fi = find(lines, lambda l: l.startswith("final A"))
    lines[fi] = lines[fi] + f" {stage}:{stage + 1}"
    out.append(("anticomplete-entrybound", "entry-bound", unlines(lines)))

    # claim-freshness: second claim repeats an old number
    lines = list(base)
    i = find(lines, lambda l: " rclaim " in l)
    j = find(lines, lambda l: " rclaim " in l, i + 1)
    parts = lines[j].split()
    parts[4] = "0"
    lines[j] = " ".join(parts)
    out.append(("anticomplete-claims", "claim-freshness", unlines(lines)))

    # d-entries-have-acts: a D element with no act behind it
    lines = list(base)
    fi = find(lines, lambda l: l.startswith("final D"))
    lines[fi] = lines[fi] + " 99991:50"
    out.append(("anticomplete-dghost", "d-entries-have-acts", unlines(lines)))

    # records-consistent: a final A element with no act behind it
    lines = list(base)
    fi = find(lines, lambda l: l.startswith("final A"))
    lines[fi] = lines[fi] + " 99993:50"
    out.append(("anticomplete-aghost", "records-consistent", unlines(lines)))

    # n-preservation: a preserved stage number shows up in final A
    lines = list(lines_of(render(base_anticomplete_quiet())))
    i = find(lines, lambda l: " nact " in l, 5)
    s = int(lines[i].split()[1])
    fi = find(lines, lambda l: l.startswith("final A"))
    lines[fi] = lines[fi] + f" {s}:{s + 9}"
    out.append(("anticomplete-npreserve", "n-preservation", unlines(lines)))
    return out


def upclosure_fixtures():
    out = []
    for case in (1, 2):
        text = render(base_upclosure(case))
        base = lines_of(text)
        if case == 2:
            # boundary-recovery: recovered value off by one
            lines = list(base)
            i = find(lines, lambda l: l.startswith("recover "))
            parts = lines[i].split()
            parts[2] = str(int(parts[2]) + 1)
            lines[i] = " ".join(parts)
            out.append(("upclosure-recover", "boundary-recovery", unlines(lines)))

        # roundtrip-decode: flip one decoded bit
        lines = list(base)
        i = find(lines, lambda l: l.startswith("block "))
        parts = lines[i].split()
        parts[2] = "1" if parts[2] == "0" else "0"
        lines[i] = " ".join(parts)
        out.append(
            (f"upclosure{case}-roundtrip", "roundtrip-decode", unlines(lines))
        )

    text = render(base_upclosure(1))
    base = lines_of(text)

    # mseq-monotone: two equal boundaries
    lines = list(base)
    i = find(lines, lambda l: l.startswith("mseq "))
    parts = lines[i].split()
    parts[2] = parts[1]
    lines[i] = " ".join(parts)
    out.append(("upclosure-monotone", "mseq-monotone", unlines(lines)))

    # pipeline-exactness: last boundary nudged
    lines = list(base)
    i = find(lines, lambda l: l.startswith("mseq "))
    parts = lines[i].split()
    parts[-1] = str(int(parts[-1]) + 1)
    lines[i] = " ".join(parts)
    out.append(("upclosure-exactness", "pipeline-exactness", unlines(lines)))

    # separator-property: drop a scripted A member out of the string
    sc = base_upclosure(1)
    a_members = sorted(e for e, _ in sc.sets["A"])
    lines = list(base)
    i = find(lines, lambda l: l.startswith("z "))
    bits = list(lines[i].split()[1])
    target = next(e for e in a_members if e < len(bits) and bits[e] == "1")
    bits[target] = "0"
    lines[i] = "z " + "".join(bits)
    out.append(("upclosure-separator", "separator-property", unlines(lines)))

    # mutual-exclusion: fully covered first block (lying case declaration)
    out.append(
        (
            "upclosure-coverage",
            "mutual-exclusion",
            render(covered_block_upclosure()),
        )
    )
    return out


def nosupermax_fixtures():
    out = []
    text = render(base_chain())
    base = lines_of(text)

    # timeline-agrees: recorded base of attempt 2 off by one
    lines = list(base)
    i = find(lines, lambda l: l.startswith("attempt 2 begin"))
    parts = lines[i].split()
    parts[3] = str(int(parts[3]) + 1)
    lines[i] = " ".join(parts)
    out.append(("nosupermax-timeline", "a2-timeline-agrees", unlines(lines)))

    # cert-outcome-agrees: acceptance flipped to a rejection
    lines = list(base)
    i = find(lines, lambda l: l == "cert 1 accepted")
    lines[i] = "cert 1 rejected - fabricated"
    del lines[i + 1]  # the map line
    out.append(("nosupermax-certflip", "a1-cert-outcome-agrees", unlines(lines)))

    # speedup-bullets: drop one selected stage from the recorded map
    lines = list(base)
    i = find(lines, lambda l: l.startswith("map "))
    parts = lines[i].split()
    lines[i] = " ".join(parts[:-1])
    out.append(("nosupermax-map", "a1-speedup-bullets", unlines(lines)))

    # boundary-exactness: one kept count lowered
    lines = list(base)
    i = find(
        lines,
        lambda l: re.match(r"ev 1\d\d boundary ([1-9]\d*)$", l) is not None,
    )
    parts = lines[i].split()
    parts[3] = str(int(parts[3]) - 1)
    lines[i] = " ".join(parts)
    out.append(("nosupermax-exactness", "a1-boundary-exactness", unlines(lines)))

    # boundary-shape: kept count beyond the previous length
    lines = list(base)
    i = find(lines, lambda l: re.match(r"ev \d+ boundary \d+$", l) is not None, 30)
    parts = lines[i].split()
    parts[3] = "99"
    lines[i] = " ".join(parts)
    out.append(("nosupermax-shape", "a1-boundary-shape", unlines(lines)))

    # change-discipline: a causeless flip deep inside attempt 1
    lines = list(base)
    i = find(lines, lambda l: re.match(r"ev 15\d boundary", l) is not None)
    stage = int(lines[i].split()[1])
    lines.insert(i + 1, f"ev {stage} xin 0")
    out.append(("nosupermax-discipline", "a1-change-discipline", unlines(lines)))

    # separator-stagewise: an A member pushed out of X
    sc = base_chain()
    a_events = sorted(sc.sets["A"], key=lambda p: p[1])
    e0, t0 = a_events[0]
    lines = list(base)
    i = find(lines, lambda l: l.startswith(f"ev {t0 + 2} "))
    lines.insert(i, f"ev {t0 + 2} xout {e0}")
    out.append(("nosupermax-separator", "a1-separator-stagewise", unlines(lines)))

    # w-trigger-forward: a crossing with its X change erased (a fresh
    # A element lands outside X and must pull itself in the same stage)
    def a_entry_xin(l):
        m = re.match(r"ev (\d+) xin (\d+)$", l)
        return m is not None and int(m.group(2)) != int(m.group(1)) - 1

    lines = list(base)
    i = find(lines, a_entry_xin)
    del lines[i]
    out.append(("nosupermax-wforward", "a1-w-trigger-forward", unlines(lines)))

    # w-trigger-backward: an early X entry postponed past its crossing
    lines = list(base)
    i = find(lines, lambda l: re.match(r"ev \d+ xin \d+$", l) is not None)
    parts = lines[i].split()
    y = int(parts[3])
    t_old = int(parts[1])
    del lines[i]
    j = find(lines, lambda l: l.startswith(f"ev {t_old + 7} "))
    lines.insert(j, f"ev {t_old + 7} xin {y}")
    out.append(("nosupermax-wbackward", "a1-w-trigger-backward", unlines(lines)))

    # settled-zone-census: the lying certificate scenario, run as is (the
    # certificate clears the selection bullets although a permanent hole
    # witnesses the supposedly divergent entry forever)
    out.append(
        (
            "nosupermax-census",
            "a1-settled-zone-census",
            render(lying_cert_scenario()),
        )
    )
    # the hole-permission audit cannot be fired through a hash-protected
    # trace: any scenario whose certificate validates has a hole-free zone
    # by construction. Its verdict is exercised by an in-memory fixture in
    # the test suite instead.
    return out


def twodegrees_fixtures():
    out = []
    text = render(base_twodegrees())
    base = lines_of(text)

    # run-exactness: drop the column firing and final B entry
    lines = list(base)
    i = find(lines, lambda l: " pfire 3 " in l)
    code = int(lines[i].split()[5])
    stage = int(lines[i].split()[1])
    del lines[i]
    fi = find(lines, lambda l: l.startswith("final B"))
    lines[fi] = lines[fi].replace(f" {code}:{stage + 1}", "")
    out.append(("twodegrees-exactness", "run-exactness", unlines(lines)))

    # disjoint-ab: fire the column onto a promoted witness
    lines = list(base)
    i = find(lines, lambda l: " promote " in l)
    x = int(lines[i].split()[5])
    stage = int(lines[i].split()[1])
    lines.insert(i + 1, f"ev {stage + 2} pfire 3 0 {x}")
    out.append(("twodegrees-disjoint", "disjoint-ab", unlines(lines)))

    # block-soundness: recorded prefix contradicts the W history
    lines = list(base)
    i = find(lines, lambda l: re.match(r"ev \d+ axiom ", l) is not None)
    parts = lines[i].split()
    parts[7] = "0100"
    lines[i] = " ".join(parts)
    out.append(("twodegrees-soundness", "block-soundness", unlines(lines)))

    # axiom-lifecycle: axiom created after its number entered K
    lines = list(base)
    i = find(lines, lambda l: re.match(r"ev \d+ axiom [01] 2 ", l) is not None)
    parts = lines[i].split()
    parts[1] = "80"  # K entry for 2 is at stage 60
    lines[i] = " ".join(parts)
    out.append(("twodegrees-lifecycle", "axiom-lifecycle", unlines(lines)))

    # promotion-clear-of-b: the witness sits in B before its promotion
    lines = list(base)
    i = find(lines, lambda l: " promote " in l)
    x = int(lines[i].split()[5])
    stage = int(lines[i].split()[1])
    j = find(lines, lambda l: l.startswith(f"ev {stage - 1} ") or l.startswith("ev 6"))
    lines.insert(j, f"ev {stage - 3} pfire 3 0 {x}")
    out.append(
        ("twodegrees-promotion", "promotion-clear-of-b", unlines(lines))
    )

    # column-coding: a free slot skipped
    lines = list(base)
    i = find(lines, lambda l: " pfire 2 0 " in l)
    parts = lines[i].split()
    parts[4] = "1"
    parts[5] = str(pair(2, 1))
    lines[i] = " ".join(parts)
    fi = find(lines, lambda l: l.startswith("final B"))
    lines[fi] = lines[fi].replace(
        f"{pair(2, 0)}:", f"{pair(2, 1)}:"
    )
    out.append(("twodegrees-coding", "column-coding", unlines(lines)))

    # block-census: two fabricated axioms exhaust column 1
    lines = list(base)
    i = find(lines, lambda l: l.startswith("ev"))
    lines.insert(i, f"ev 5 axiom 7 8 {pair(1, 0)} 0 -")
    lines.insert(i + 1, f"ev 5 axiom 7 9 {pair(1, 1)} 0 -")
    out.append(("twodegrees-blockcensus", "block-census", unlines(lines)))

    # witness-threshold: an axiom whose witness sits below its column bound
    lines = list(base)
    i = find(lines, lambda l: re.match(r"ev \d+ axiom ", l) is not None)
    parts = lines[i].split()
    parts[5] = "0"  # witness 0 can never exceed its column threshold
    lines[i] = " ".join(parts)
    out.append(("twodegrees-threshold", "witness-threshold", unlines(lines)))

    # cube-census: five fabricated promotions below 8
    lines = list(base)
    i = find(lines, lambda l: l.startswith("ev"))
    extra = []
    for m, x in enumerate((0, 2, 4, 5, 6)):
        extra.append(f"ev 5 axiom 9 {m} {x} 0 -")
        extra.append(f"ev 6 promote 9 {m} {x}")
    for k, l in enumerate(extra):
        lines.insert(i + k, l)
    out.append(("twodegrees-cubecensus", "cube-census", unlines(lines)))

    # roundtrip-c-from-b: a column of C that never reaches B
    lines = list(base)
    i = find(lines, lambda l: " pfire 3 " in l)
    code = int(lines[i].split()[5])
    stage = int(lines[i].split()[1])
    del lines[i]
    fi = find(lines, lambda l: l.startswith("final B"))
    lines[fi] = lines[fi].replace(f" {code}:{stage + 1}", "")
    out.append(("twodegrees-rtc", "roundtrip-c-from-b", unlines(lines)))

    # roundtrip-b-from-c: a second witness in one column
    lines = list(base)
    i = find(lines, lambda l: " pfire 3 " in l)
    stage = int(lines[i].split()[1])
    lines.insert(i + 1, f"ev {stage + 1} pfire 3 5 {pair(3, 5)}")
    fi = find(lines, lambda l: l.startswith("final B"))
    lines[fi] = lines[fi] + f" {pair(3, 5)}:{stage + 2}"
    out.append(("twodegrees-rtb", "roundtrip-b-from-c", unlines(lines)))
    return out


# ---------------------------------------------------------------------------


def write_samples():
    samples = OUT / "samples"
    samples.mkdir(parents=True, exist_ok=True)
    picks = [
        ("anticomplete-readers.scn", anticomplete_scenario(0, 300)),
        ("anticomplete-quiet.scn", Scenario(construction="anticomplete", horizon=200)),
        ("nosupermax-sparse.scn", nosupermax_scenario(0, 300)),
        ("nosupermax-chain.scn", base_chain(200)),
        ("twodegrees-mixed.scn", twodegrees_scenario(1, 300)),
        ("twodegrees-blocking.scn", base_twodegrees()),
        ("upclosure-iterated.scn", base_upclosure(1)),
        ("upclosure-leastpoint.scn", base_upclosure(2)),
    ]
    for name, sc in picks:
        load_scenario(sc.canonical())
        (samples / name).write_text(sc.canonical())
    print(f"wrote {len(picks)} samples")


def write_cert_fixtures():
    certs = OUT / "certs"
    certs.mkdir(parents=True, exist_ok=True)
    labels = []
    for name, sc, expect in wrong_cert_fixtures():
        (certs / f"{name}.scn").write_text(sc.canonical())
        labels.append(f"{name}.scn {'accept' if expect else 'reject'}")
    (certs / "labels.txt").write_text("\n".join(labels) + "\n")
    print(f"wrote {len(labels)} certificate fixtures")


def write_fault_fixtures():
    faults = OUT / "faults"
    faults.mkdir(parents=True, exist_ok=True)
    fixtures = (
        anticomplete_fixtures()
        + upclosure_fixtures()
        + nosupermax_fixtures()
        + twodegrees_fixtures()
    )
    manifest = []
    for name, expected, text in fixtures:
        report = verify_trace(parse_trace(text))
        failed = {c.name for c in report.failures()}
        assert expected in failed, (
            f"fixture {name}: expected {expected} to fail, failures: {failed}"
        )
        (faults / f"{name}.trc").write_text(text)
        manifest.append(f"{name}.trc {expected}")
    (faults / "manifest.txt").write_text("\n".join(manifest) + "\n")
    print(f"wrote {len(manifest)} fault fixtures")


def write_reports():
    reports = OUT / "reports"
    count = 0
    for sub, pattern in (("samples", "*.scn"), ("certs", "*.scn"), ("faults", "*.trc")):
        (reports / sub).mkdir(parents=True, exist_ok=True)
        for path in sorted((OUT / sub).glob(pattern)):
            text = path.read_text()
            trace = text if sub == "faults" else render(load_scenario(text))
            report = verify_trace(parse_trace(trace)).render()
            (reports / sub / f"{path.stem}.txt").write_text(report)
            count += 1
    print(f"wrote {count} reports")


def main():
    write_samples()
    write_cert_fixtures()
    write_fault_fixtures()
    write_reports()
    # sanity: all base traces verify clean
    for sc in (
        base_anticomplete(),
        base_anticomplete_quiet(),
        base_upclosure(1),
        base_upclosure(2),
        base_chain(),
        base_twodegrees(),
        base_twodegrees_kill(),
    ):
        report = verify_trace(parse_trace(render(sc)))
        assert report.passed, report.render()
    print("base traces verify clean")


if __name__ == "__main__":
    main()
