"""Deterministic corpus builders: adversarial scenarios for every
construction, plus labeled wrong-certificate fixtures.

Each builder returns fully explicit Scenario objects (the randomness lives
in the builder seeds, never in the scenario). The acceptance suite runs
these corpora; a sample is also serialized into the repository for the
command line examples.
"""

from __future__ import annotations

import random

from .functionals import bits_of, program_rows
from .nosupermax import SpeedupCertificate, detect_outcome, run_attempt
from .scenario import Scenario
from .upclosure import CaseTag


# ---------------------------------------------------------------------------
# adversary program builders: each gives a program's rows, as
# functionals.program_rows does, a row being (available_at, use, mask, want,
# output)


def always_zero_rules(width):
    return program_rows((y, (0, 0, 0, 0, 0)) for y in range(width))


def reader_rules(a, b, width, avail=0):
    """Answer on y is the oracle bit at position a*y + b."""
    pairs = []
    for y in range(width):
        p = a * y + b
        for bit in (0, 1):
            pairs.append((y, (avail, p + 1, 1 << p, bit << p, bit)))
    return program_rows(pairs)


def or_reader_rules(a, b, gap, width, avail=0):
    """Answer on y is the disjunction of two oracle bits."""
    pairs = []
    for y in range(width):
        p = a * y + b
        q = p + gap
        use = q + 1
        both = 1 << p | 1 << q
        pairs.append((y, (avail, use, both, 0, 0)))
        pairs.append((y, (avail, use, 1 << p, 1 << p, 1)))
        pairs.append((y, (avail, use, both, 1 << q, 1)))
    return program_rows(pairs)


def prefix_rules(epochs, width):
    """One rule family per oracle-prefix epoch (pairwise incompatible)."""
    pairs = []
    for prefix, zeros, avail in epochs:
        mask = (1 << len(prefix)) - 1
        want = int(prefix[::-1] or "0", 2)  # bit p is prefix[p]
        for y in range(width):
            pairs.append((y, (avail, len(prefix), mask, want, 0 if y in zeros else 1)))
    return program_rows(pairs)


def w_epoch_rules(w_events, length, zeros_per_epoch, width, avail=0):
    stages = sorted({0} | {t for _, t in w_events})
    epochs = []
    for i, t in enumerate(stages):
        members = {x for x, u in w_events if u <= t}
        prefix = "".join("1" if p in members else "0" for p in range(length))
        zeros = zeros_per_epoch[min(i, len(zeros_per_epoch) - 1)]
        epochs.append((prefix, zeros, avail))
    return prefix_rules(epochs, width)


# ---------------------------------------------------------------------------
# anticomplete corpus


def anticomplete_scenario(seed, horizon=1000) -> Scenario:
    rng = random.Random(9100 + seed)
    rules = {}
    width = rng.randrange(240, 420)
    n_programs = rng.randrange(1, 4)
    for e in rng.sample(range(4), n_programs):
        flavour = rng.random()
        avail = rng.choice([0, 0, 0, rng.randrange(5, 60)])
        if flavour < 0.2:
            rules[f"phi{e}"] = always_zero_rules(width)
        elif flavour < 0.75:
            rules[f"phi{e}"] = reader_rules(
                rng.randrange(1, 4), rng.randrange(3, 12), width, avail
            )
        else:
            rules[f"phi{e}"] = or_reader_rules(
                rng.randrange(1, 3), rng.randrange(3, 9), rng.randrange(2, 7),
                width, avail,
            )
    return Scenario(construction="anticomplete", horizon=horizon, rules=rules)


def anticomplete_corpus(count=20, horizon=1000):
    out = [("anticomplete-empty", Scenario(construction="anticomplete", horizon=horizon))]
    for i in range(count - 1):
        out.append((f"anticomplete-{i:02d}", anticomplete_scenario(i, horizon)))
    return out


# ---------------------------------------------------------------------------
# nosupermax corpus


def _sparse_events(rng, horizon, n_elems, lo=0, hi=None):
    hi = hi if hi is not None else horizon
    a, b = [], []
    for e in rng.sample(range(lo, hi), min(n_elems, hi - lo)):
        t = rng.randrange(1, horizon)
        (a if rng.random() < 0.5 else b).append((e, t))
    return a, b


def _cofinite_events(horizon, holes_below):
    a, b = [], []
    for e in range(holes_below, horizon + 10):
        t = max(1, e - holes_below + 1)
        if t >= horizon:
            continue
        (a if e % 2 == 0 else b).append((e, t))
    return a, b


def _staged_kill_events(horizon, delay, skip):
    """Each number enters the sets shortly after it can first witness,
    except every skip-th, which stays a hole."""
    a, b = [], []
    for e in range(0, horizon - delay - 1):
        if e % skip == 0:
            continue
        t = max(1, e + delay)
        if t >= horizon:
            continue
        (a if e % 2 == 0 else b).append((e, t))
    return a, b


def nosupermax_scenario(seed, horizon=1000) -> Scenario:
    rng = random.Random(3300 + seed)
    flavour = seed % 4
    if flavour == 0:
        a, b = _sparse_events(rng, horizon, rng.randrange(40, 160))
    elif flavour == 1:
        a, b = _cofinite_events(horizon, rng.randrange(6, 16))
    elif flavour == 2:
        a, b = _staged_kill_events(horizon, rng.randrange(1, 5), rng.randrange(5, 12))
    else:
        a, b = _sparse_events(rng, horizon, rng.randrange(60, 200))
        a2, b2 = _cofinite_events(horizon, rng.randrange(150, 260))
        have = {e for e, _ in a + b}
        a += [(e, t) for e, t in a2 if e not in have]
        b += [(e, t) for e, t in b2 if e not in have]
    return Scenario(
        construction="nosupermax", horizon=horizon, sets={"A": a, "B": b}
    )


def chain_certificates(sc: Scenario, want=2):
    """Run the pipeline far enough to derive genuine failure certificates."""
    from .nosupermax import apply_speedup

    certs = []
    a = sc.sets.get("A", [])
    b = sc.sets.get("B", [])
    horizon = sc.horizon
    base = -1
    for stage_n in range(want):
        run = run_attempt(stage_n + 1, base, a, b, horizon)
        out = detect_outcome(run, max(1, horizon // 5))
        if out.k < 0:
            break
        # past the degenerate opening (boundary below the base) and past the
        # placement stage of every prefix entry
        settled = max(1, base + 2)
        for j in range(out.k):
            if j < len(run.entry_resets) and run.entry_resets[j]:
                settled = max(settled, run.entry_resets[j][-1] + 1)
        cert = SpeedupCertificate(
            attempt=stage_n + 1,
            ell=out.ell,
            k=out.k,
            parity=out.parity,
            settling_stage=min(settled, horizon - 1) if horizon > 1 else 1,
        )
        res = apply_speedup(run, cert)
        if not res.accepted:
            break
        certs.append(cert)
        a, b = res.new_a_events, res.new_b_events
        base = res.new_base
        horizon = max(1, res.new_horizon)
    return certs


def wrong_cert_fixtures(horizon=400):
    """Labeled certificate fixtures: (name, scenario, expect_accepted)."""
    out = []
    base_sc = nosupermax_scenario(1, horizon)  # cofinite: attempt 1 fails
    good = chain_certificates(base_sc, want=1)
    assert good, "the cofinite scenario must yield a genuine certificate"
    g = good[0]
    ok_sc = nosupermax_scenario(1, horizon)
    ok_sc.certs = [g]
    out.append(("cert-genuine", ok_sc, True))

    wrong_ell = nosupermax_scenario(1, horizon)
    wrong_ell.certs = [
        SpeedupCertificate(1, g.ell - 1, g.k - 1, (g.k - 1) % 2, g.settling_stage)
    ]
    out.append(("cert-wrong-ell", wrong_ell, False))

    early = nosupermax_scenario(1, horizon)
    early.certs = [SpeedupCertificate(1, g.ell, g.k, g.parity, 2)]
    out.append(("cert-settles-too-early", early, False))

    stable = Scenario(construction="nosupermax", horizon=horizon)
    stable.certs = [SpeedupCertificate(1, 3, 4, 0, max(2, horizon // 10))]
    out.append(("cert-on-stable-run", stable, False))

    overshoot = nosupermax_scenario(1, horizon)
    overshoot.certs = [
        SpeedupCertificate(1, g.ell + 3, g.k + 3, (g.k + 3) % 2, g.settling_stage)
    ]
    out.append(("cert-ell-too-big", overshoot, False))
    return out


# ---------------------------------------------------------------------------
# twodegrees corpus


def twodegrees_scenario(seed, horizon=1000) -> Scenario:
    rng = random.Random(7700 + seed)
    length = 6
    sets = {}
    rules = {}
    for e in range(rng.randrange(1, 3)):
        events = [
            (x, rng.randrange(2, horizon - 10))
            for x in rng.sample(range(length), rng.randrange(0, 3))
        ]
        sets[f"W{e}"] = events
        n_epochs = len({t for _, t in events}) + 1
        zeros = [
            set(rng.sample(range(16, 90), rng.randrange(1, 4)))
            for _ in range(n_epochs)
        ]
        rules[f"phi{e}"] = w_epoch_rules(
            events, length, zeros, 100, avail=rng.choice([0, 0, rng.randrange(3, 40)])
        )
    sets["K"] = [
        (m, rng.randrange(horizon // 3, horizon - 1))
        for m in rng.sample(range(3), rng.randrange(0, 3))
    ]
    sets["C"] = [
        (n, rng.randrange(1, horizon - 1))
        for n in rng.sample(range(9), rng.randrange(1, 7))
    ]
    return Scenario(
        construction="twodegrees", horizon=horizon, sets=sets, rules=rules
    )


def twodegrees_corpus(count=20, horizon=1000):
    out = [
        (
            "twodegrees-coding-only",
            Scenario(
                construction="twodegrees",
                horizon=horizon,
                sets={"C": [(n, 7 * n + 3) for n in range(8)]},
            ),
        )
    ]
    for i in range(count - 1):
        out.append((f"twodegrees-{i:02d}", twodegrees_scenario(i, horizon)))
    return out


# ---------------------------------------------------------------------------
# upclosure corpus


def upclosure_scenario(seed, case_tag, horizon=100, domain=64) -> Scenario:
    rng = random.Random(5500 + seed)
    span = rng.randrange(2, 4)
    table = []
    prev = 0
    for x in range(horizon + span + 4):
        fx = max(prev, x + span + rng.randrange(0, 2))
        table.append((x, fx))
        prev = fx
    fmap = dict(table)

    if case_tag == 2:
        gap = span + 4 + rng.randrange(0, 3)
        holes = set(range(rng.randrange(1, 3), domain, gap))
        k = None
    else:
        k = rng.randrange(0, 7)
        holes = {y for y in range(k, domain) if (y - k) % 2 == 0}
        holes |= {y for y in range(k) if rng.random() < 0.3}
    holes |= set(range(domain, horizon + span + 4))

    a_mem, b_mem = set(), set()
    for y in range(domain):
        if y in holes:
            continue
        (a_mem if rng.random() < 0.5 else b_mem).add(y)

    def stamps(members):
        return [(e, rng.randrange(0, horizon - 1)) for e in sorted(members)]

    def op_rules(source, target):
        """Each x answers whether it is in the target, guarded by the source's
        bits below f(x), all required to hold 1."""
        bits, pairs = bits_of(source), []
        for x in range(horizon):
            guard = bits & ((1 << fmap[x]) - 1)
            avail = rng.randrange(0, horizon // 2) if rng.random() < 0.5 else 0
            pairs.append((x, (avail, fmap[x], guard, guard, 1 if x in target else 0)))
        return program_rows(pairs)

    # block indices that land in C: enough for eight blocks
    c_mem = {n for n in range(9) if rng.random() < 0.5}
    sc = Scenario(
        construction="upclosure",
        horizon=horizon,
        sets={
            "A": stamps(a_mem),
            "B": stamps(b_mem),
            "C": [(n, rng.randrange(0, horizon - 1)) for n in sorted(c_mem)],
        },
        rules={
            "gamma": op_rules(a_mem, b_mem),
            "delta": op_rules(b_mem, a_mem),
        },
        bound_table=table,
        case=CaseTag(1, k) if case_tag == 1 else CaseTag(2),
    )
    return sc


def upclosure_corpus(per_case=100):
    out = []
    for i in range(per_case):
        out.append((f"upclosure-case1-{i:03d}", upclosure_scenario(i, 1)))
        out.append((f"upclosure-case2-{i:03d}", upclosure_scenario(i, 2)))
    return out
