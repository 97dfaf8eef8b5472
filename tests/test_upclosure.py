"""Block coding into separators: case split, boundaries, encode/decode."""

import hashlib
import random
from collections import Counter
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive_upclosure
import sepsim.functionals as functionals
import sepsim.upclosure as upclosure
from sepsim.corpus import upclosure_corpus, upclosure_scenario
from sepsim.enumcore import SeparatorSnapshot, StageSet
from sepsim.errors import HypothesisViolation, UsageError
from sepsim.functionals import (
    OracleProgram,
    OracleRule,
    UseBound,
    UseBoundedOperator,
    bits_of,
    wtt_apply,
)
from sepsim.scenario import load_scenario, parse_scenario
from sepsim.trace import parse_trace, run_scenario, run_upclosure_pipeline
from sepsim.upclosure import (
    CaseTag,
    WttAgreementTable,
    audit_hypotheses,
    classify_case,
    covered_points,
    decode_block,
    encode_separator,
    m_sequence,
    recover_m_next,
    simultaneous_agreement_stages,
)
from sepsim.verify import verify_trace


def member_reader(members, f, avail_of=None):
    """Operator computing 'target' from 'source': for each input x the guard
    pins the source's final members below f(x); output is the target bit."""
    rules = []
    for x in range(f.domain):
        guard = tuple((p, 1) for p in sorted(members["source"]) if p < f(x))
        rules.append(
            OracleRule(
                guard=guard,
                input=x,
                output=1 if x in members["target"] else 0,
                use=f(x),
                available_at=0 if avail_of is None else avail_of(x),
            )
        )
    return UseBoundedOperator(program=OracleProgram(rules), bound=f)


def build_settled(rng, case_tag, horizon=100, domain=64):
    """Random settled scenario satisfying the audited hypotheses.

    Returns dict with a, b (StageSets), gamma, delta, f, case, c (set of
    block indices), holes.
    """
    span = rng.randrange(2, 4)
    table = []
    prev = 0
    for x in range(horizon + span + 4):
        fx = max(prev, x + span + rng.randrange(0, 2))
        table.append(fx)
        prev = fx
    f = UseBound(table=tuple(table))

    if case_tag == 2:
        gap = span + 4 + rng.randrange(0, 3)
        holes = set(range(rng.randrange(1, 3), domain, gap))
    else:
        k = rng.randrange(0, 7)
        # alternate holes from k on, so every (x, f(x)] with x >= k has one
        holes = {y for y in range(k, domain) if (y - k) % 2 == 0}
        holes |= {y for y in rng.sample(range(k), k) if rng.random() < 0.3}
    holes |= set(range(domain, horizon + span + 4))  # nothing above domain

    a_mem, b_mem = set(), set()
    for y in range(domain):
        if y in holes:
            continue
        (a_mem if rng.random() < 0.5 else b_mem).add(y)

    def stamp(members):
        return StageSet(
            events=tuple((e, rng.randrange(0, horizon)) for e in sorted(members)),
            horizon=horizon,
        )

    a, b = stamp(a_mem), stamp(b_mem)
    avail = (lambda x: rng.randrange(0, horizon // 2)) if rng.random() < 0.5 else None
    gamma = member_reader({"source": a_mem, "target": b_mem}, f, avail)
    delta = member_reader({"source": b_mem, "target": a_mem}, f, avail)
    case = CaseTag(1, k) if case_tag == 1 else CaseTag(2)
    blocks = 8 if case_tag == 1 else None
    return {
        "a": a,
        "b": b,
        "gamma": gamma,
        "delta": delta,
        "f": f,
        "case": case,
        "horizon": horizon,
        "holes": holes,
    }


def boundaries(sc, count):
    """The first `count` block boundaries of a `build_settled` scenario: f
    iterated from k in case 1, the case-2 recursion otherwise."""
    if sc["case"].tag == 1:
        values = [sc["case"].k]
        while len(values) < count:
            values.append(sc["f"](values[-1]))  # raises "bound table exhausted"
        return values
    union = sc["a"].final() | sc["b"].final()
    return m_sequence(*covered_points(union, sc["f"]), count)[0]


def covered_of(a, b, f):
    """The covered points of the final snapshots of A and B."""
    return covered_points(a.final() | b.final(), f)[1]


# SHA-256 of run_scenario(upclosure_scenario(seed, case, horizon=2000)).render():
# every case-2 trace here recovers all eight boundaries, at stages up to 1,997,
# far past the h <= 100 of the benchmark's reference digests
LONG_HORIZON_DIGESTS = {
    (1, 0): "e3e8c7997bf8163007ffcd77476d1eca5cdb3257a17cefe05f97bcb0a0171d5e",
    (1, 1): "97d4e51aef0d479021e772dafebd1c90409937e7d71f033949d43858ad468bc6",
    (1, 2): "d4ea29ed113f97d10ad65243f1a4f2c81b6d65ac4db9e02ac3672f3ff5ae9448",
    (1, 3): "3d0aa74947b99faa1cb6fb1fa255964bd14e2e1e39a962ac4889d7965058fd87",
    (2, 0): "6335e0b605ca889dc2553903f15b20fcb8ffb0958d7941e5c441df10868015a5",
    (2, 1): "90e753c56bbe59b47793eae6bd47b07c9d89eb770b220b457f26f2e267647bf6",
    (2, 2): "0fa077b04868da93fcf0f5fa514087d742ff58170cb212ddbb2363907723406b",
    (2, 3): "caa07cb4f41fc664bd7bac5e418ffd1f0ec4d82219e39923739b83d7ce3e64d5",
}


@pytest.mark.parametrize("case, seed", sorted(LONG_HORIZON_DIGESTS))
def test_trace_digest_at_horizon_2000(case, seed):
    text = run_scenario(upclosure_scenario(seed, case, horizon=2000)).render()
    assert hashlib.sha256(text.encode()).hexdigest() == LONG_HORIZON_DIGESTS[case, seed]


class TestWidthCap:
    @pytest.mark.parametrize("case_tag", [1, 2])
    def test_uses_past_4096_within_the_cap_verify(self, case_tag):
        """At h = 4200 the corpus builder writes rule uses up to 4202 and
        bound values up to 4208, past 4096 but within the horizon + 4096."""
        sc = load_scenario(upclosure_scenario(3, case_tag, 4200).canonical())
        assert max(r.use for rules in sc.rules.values() for r in rules) > 4096
        report = verify_trace(parse_trace(run_scenario(sc).render()))
        assert report.passed, report.render()


class TestClassify:
    def test_empty_sets_case1_consistent(self):
        f = UseBound(table=tuple(x + 1 for x in range(30)))
        a = StageSet(events=(), horizon=20)
        b = StageSet(events=(), horizon=20)
        assert classify_case(covered_of(a, b, f), 20, CaseTag(1, 0))

    def test_cofinite_union_rejected_by_audit(self):
        f = UseBound(table=tuple(x + 1 for x in range(30)))
        evens = StageSet(events=tuple((y, 0) for y in range(0, 30, 2)), horizon=20)
        odds = StageSet(events=tuple((y, 0) for y in range(1, 30, 2)), horizon=20)
        gamma = member_reader(
            {"source": set(range(0, 30, 2)), "target": set(range(1, 30, 2))}, f
        )
        delta = member_reader(
            {"source": set(range(1, 30, 2)), "target": set(range(0, 30, 2))}, f
        )
        with pytest.raises(HypothesisViolation, match="no holes"):
            audit_hypotheses(evens, odds, gamma, delta, f, 20)

    def test_scripted_covered_intervals_counted(self):
        # exactly the intervals (5, f(5)] and (9, f(9)] covered
        f = UseBound(table=tuple(x + 2 for x in range(40)))
        union = set(range(6, 8)) | set(range(10, 12))
        a = StageSet(events=tuple((y, 0) for y in union), horizon=40)
        b = StageSet(events=(), horizon=40)
        # brute-force covered count
        covered = [
            x
            for x in range(40)
            if all(y in union for y in range(x + 1, f(x) + 1))
        ]
        assert covered == [5, 9]
        assert covered_of(a, b, f) == [5, 9]
        # threshold ceil(40/10) = 4 > 2: case 2 declared inconsistent
        assert not classify_case([5, 9], 40, CaseTag(2))
        # case 1 with k above the covered points is consistent
        assert classify_case([5, 9], 40, CaseTag(1, 10))
        assert not classify_case([5, 9], 40, CaseTag(1, 4))
        # a covered point at k contradicts case 1; one at the horizon is
        # past the scanned range
        assert not classify_case([5, 9], 40, CaseTag(1, 9))
        assert classify_case([5, 9], 9, CaseTag(1, 6))


class TestMSequence:
    def test_case2_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(30):
            f = UseBound(table=tuple(x + 2 for x in range(60)))
            union = set(rng.sample(range(60), rng.randrange(20, 50)))
            a = {y for y in union if rng.random() < 0.5}
            b = union - a
            values, _ = m_sequence(*covered_points(a | b, f), 6)
            # brute force the recursion definition
            expected = [-1]
            while len(expected) < 6:
                prev = expected[-1]
                found = None
                for x in range(prev + 1, 60):
                    gap_has_hole = any(
                        y not in union for y in range(prev + 1, x + 1)
                    )
                    covered = all(y in union for y in range(x + 1, f(x) + 1))
                    if gap_has_hole and covered:
                        found = x
                        break
                if found is None:
                    break
                expected.append(found)
            assert values == expected
            # strict monotonicity always
            assert all(u < v for u, v in zip(values, values[1:]))


@st.composite
def gap_inputs(draw):
    """A and B over a random horizon, a strict monotone bound table, a
    declared case and a boundary count. Each position up to the table's top
    lies in A, in B or in neither with equal odds, so covered intervals and
    holes both occur."""
    horizon = draw(st.integers(1, 30))
    table, prev = [], 0
    for x in range(draw(st.integers(0, 25))):
        prev = max(prev, x + 1) + draw(st.integers(0, 3))
        table.append(prev)
    f = UseBound(table=tuple(table))
    sides = draw(st.lists(st.sampled_from("AB-"), max_size=prev + 2))
    entered = [(y, at, draw(st.integers(0, horizon))) for y, at in enumerate(sides)]
    a, b = (
        StageSet([(y, t) for y, at, t in entered if at == side], horizon=horizon)
        for side in "AB"
    )
    k = draw(st.none() | st.integers(0, 30))
    declared = CaseTag(2) if k is None else CaseTag(1, k)
    return a, b, f, horizon, declared, draw(st.integers(0, 10))


class TestGapListAgainstNaive:
    """covered_points works out the gap list and the covered points once per
    run, and classify_case and m_sequence read them, with the results of
    the interval scans as first written (tests/naive_upclosure.py). The
    boundaries are compared under a case-2 declaration, the only one with a
    recursion."""

    @staticmethod
    def assert_match(a, b, f, horizon, declared, count):
        """The m_sequence outcome under a case-2 declaration, else None."""
        gaps, points = covered_points(a.final() | b.final(), f)
        got = classify_case(points, horizon, declared)
        assert got == naive_upclosure.classify_case(a, b, f, horizon, declared)
        if declared.tag == 1:
            return None
        got = m_sequence(gaps, points, count)
        assert got == naive_upclosure.m_sequence(a.final(), b.final(), f, count)
        return got

    @settings(max_examples=300, deadline=None)
    @given(gap_inputs())
    def test_random_snapshots(self, inputs):
        self.assert_match(*inputs)

    @settings(max_examples=300, deadline=None)
    @given(gap_inputs())
    def test_covered_points(self, inputs):
        """gaps[y] is the least point >= y outside the union, one past the
        table's top when there is none, and the covered points are exactly
        the x of f's domain whose interval the naive scan finds covered."""
        a, b, f, *_ = inputs
        union = a.final() | b.final()
        gaps, points = covered_points(union, f)
        top = max(f.table, default=0)
        assert gaps == [
            next((p for p in range(y, top + 1) if p not in union), top + 1)
            for y in range(top + 1)
        ]
        assert points == [
            x for x in range(f.domain) if naive_upclosure._covered(x, f, union)
        ]

    def test_missing_index_reached(self):
        # (-1, 0] holds a hole and (0, 1] is covered, so m_1 = 0; past it no
        # hole is followed by a covered interval, so index 2 is missing
        a, b = StageSet([(1, 0)], horizon=3), StageSet([], horizon=3)
        got = self.assert_match(a, b, UseBound(table=(1, 2, 3)), 3, CaseTag(2), 4)
        assert got == ([-1, 0], 2)

    def test_every_corpus_scenario(self):
        """All 200 corpus scenarios, under their own case and under case 2,
        for 9 and for 40 boundaries."""
        results = [
            self.assert_match(a, b, f, sc.horizon, declared, count)
            for _, sc in upclosure_corpus()
            for a, b, f in [(sc.stage_set("A"), sc.stage_set("B"), sc.use_bound())]
            for declared in (sc.case, CaseTag(2))
            for count in (9, 40)
        ]
        assert len(results) == 800
        missing = [r for r in results if r is not None and r[1] is not None]
        assert len(missing) == 442


class TestEncodeDecode:
    def setup_scenario(self, seed, case_tag):
        rng = random.Random(seed)
        sc = build_settled(rng, case_tag)
        values = boundaries(sc, 9)
        blocks = len(values) - 1
        c = {n for n in range(blocks) if rng.random() < 0.5}
        z = encode_separator(c, values, sc["a"].final(), sc["b"].final())
        return sc, values, blocks, c, z

    def test_c_empty_copies_a(self):
        sc, values, blocks, _, _ = self.setup_scenario(1, 1)
        z = encode_separator(set(), values, sc["a"].final(), sc["b"].final())
        a_fin = sc["a"].final()
        for y in range(z.length):
            assert z[y] == (1 if y in a_fin else 0)

    def test_c_full_copies_complement_of_b(self):
        sc, values, blocks, _, _ = self.setup_scenario(2, 1)
        z = encode_separator(
            set(range(blocks)), values, sc["a"].final(), sc["b"].final()
        )
        b_fin = sc["b"].final()
        m0 = values[0]
        for y in range(z.length):
            if y <= m0:
                assert z[y] == (1 if y in sc["a"].final() else 0)
            else:
                assert z[y] == (0 if y in b_fin else 1)

    def test_positionwise_rule(self):
        # C = {1}, three blocks: check every position against the branch rule
        sc, values, blocks, _, _ = self.setup_scenario(3, 2)
        values = values[:4]
        c = {1}
        z = encode_separator(c, values, sc["a"].final(), sc["b"].final())
        a_fin, b_fin = sc["a"].final(), sc["b"].final()
        for n in range(3):
            for y in range(values[n] + 1, values[n + 1] + 1):
                if n in c:
                    assert z[y] == (0 if y in b_fin else 1)
                else:
                    assert z[y] == (1 if y in a_fin else 0)

    @pytest.mark.parametrize("case_tag", [1, 2])
    def test_round_trip(self, case_tag):
        for seed in range(12):
            sc, values, blocks, c, z = self.setup_scenario(100 + seed, case_tag)
            for n in range(blocks):
                bit, stage = decode_block(
                    z, sc["a"], sc["b"], values[n], values[n + 1], sc["horizon"]
                )
                assert bit == (1 if n in c else 0), f"seed {seed} block {n}"
                assert stage <= sc["horizon"]

    @pytest.mark.parametrize("case_tag", [1, 2])
    def test_mutual_exclusion(self, case_tag):
        for seed in range(8):
            sc, values, blocks, c, z = self.setup_scenario(200 + seed, case_tag)
            for n in range(blocks):
                stages = simultaneous_agreement_stages(
                    z, sc["a"], sc["b"], values[n], values[n + 1], sc["horizon"]
                )
                assert len(stages) == 0

    def test_corrupted_block_fails(self):
        # Flipping one hole bit in a block with two holes leaves the block
        # agreeing with neither side, ever: the two sides differ exactly at
        # holes, and the corrupted string now sits strictly between them.
        for seed in range(30):
            sc, values, blocks, c, z = self.setup_scenario(seed, 1)
            target = None
            for n in range(blocks):
                hs = [
                    y
                    for y in range(values[n] + 1, values[n + 1] + 1)
                    if y in sc["holes"]
                ]
                if len(hs) >= 2:
                    target = (n, hs[0])
                    break
            if target is None:
                continue
            n, hole = target
            bits = list(z.bits)
            bits[hole] = "1" if bits[hole] == "0" else "0"
            z2 = SeparatorSnapshot("".join(bits))
            with pytest.raises(ValueError, match="undecided at horizon"):
                decode_block(
                    z2, sc["a"], sc["b"], values[n], values[n + 1], sc["horizon"]
                )
            return
        pytest.fail("no seed produced a block with two holes")


class TestRecovery:
    def test_recover_matches_direct(self):
        hits = 0
        for seed in range(10):
            rng = random.Random(300 + seed)
            sc = build_settled(rng, 2)
            values = boundaries(sc, 8)
            blocks = len(values) - 1
            if blocks < 2:
                continue
            c = {n for n in range(blocks) if rng.random() < 0.5}
            z = encode_separator(c, values, sc["a"].final(), sc["b"].final())
            table = WttAgreementTable(
                sc["a"], sc["b"], sc["gamma"], sc["delta"], sc["f"], sc["horizon"]
            )
            for n in range(blocks):
                got, stage = recover_m_next(z, values[: n + 1], table)
                assert got == values[n + 1], f"seed {seed} index {n + 1}"
                hits += 1
        assert hits > 0

    def test_corrupted_z_not_settled_or_mismatch(self):
        rng = random.Random(404)
        sc = build_settled(rng, 2)
        values = boundaries(sc, 6)
        assert len(values) >= 3
        z = encode_separator(set(), values, sc["a"].final(), sc["b"].final())
        # corrupt the first block at a hole position
        hole = next(
            y for y in range(values[0] + 1, values[1] + 1) if y in sc["holes"]
        )
        bits = list(z.bits)
        bits[hole] = "1" if bits[hole] == "0" else "0"
        z2 = SeparatorSnapshot("".join(bits))
        table = WttAgreementTable(
            sc["a"], sc["b"], sc["gamma"], sc["delta"], sc["f"], sc["horizon"]
        )
        try:
            got, _ = recover_m_next(z2, values[:2], table)
        except ValueError as e:
            assert "not settled" in str(e)
        else:
            pass  # a mismatch downstream is also an acceptable detection

    def test_degenerate_first_candidate_rejected(self):
        # (m_n, x] fully covered for the first candidate x: x is skipped even
        # though (x, f(x)] is covered; the next candidate with a gap wins.
        f = UseBound(table=tuple(x + 2 for x in range(30)))
        union = {1, 2, 3, 4, 5, 6, 8, 9, 10, 11}  # hole at 0, 7, 12+
        a_mem = {1, 3, 5, 8, 10}
        b_mem = union - a_mem
        a = StageSet(events=tuple((e, 0) for e in sorted(a_mem)), horizon=20)
        b = StageSet(events=tuple((e, 0) for e in sorted(b_mem)), horizon=20)
        gamma = member_reader({"source": a_mem, "target": b_mem}, f)
        delta = member_reader({"source": b_mem, "target": a_mem}, f)
        values, _ = m_sequence(*covered_points(union, f), 3)
        # direct recursion: m_1 is the least x > -1 with a gap below and
        # (x, f(x)] covered
        assert values[0] == -1
        z = encode_separator(set(), values, a_mem, b_mem)
        table = WttAgreementTable(a, b, gamma, delta, f, 20)
        got, _ = recover_m_next(z, values[:1], table)
        assert got == values[1]


class TestAudit:
    def test_operator_mismatch_located(self):
        rng = random.Random(9)
        sc = build_settled(rng, 1)
        # corrupt gamma: flip output for input 4
        rules = []
        for r in sc["gamma"].program.rules:
            if r.input == 4:
                r = OracleRule(
                    guard=r.guard,
                    input=4,
                    output=1 - r.output,
                    use=r.use,
                    available_at=r.available_at,
                )
            rules.append(r)
        bad = UseBoundedOperator(program=OracleProgram(rules), bound=sc["f"])
        with pytest.raises(HypothesisViolation, match="bit 4"):
            audit_hypotheses(sc["a"], sc["b"], bad, sc["delta"], sc["f"], sc["horizon"])

    def test_clean_scenarios_pass(self):
        for seed in range(6):
            rng = random.Random(500 + seed)
            for tag in (1, 2):
                sc = build_settled(rng, tag)
                audit_hypotheses(
                    sc["a"], sc["b"], sc["gamma"], sc["delta"], sc["f"], sc["horizon"]
                )


@cache
def case2_lines(seed):
    """The token lists of the lines of case-2 corpus scenario `seed`."""
    lines = upclosure_scenario(seed, 2).canonical().splitlines()
    return tuple(tuple(line.split()) for line in lines)


def edit_slots(parts):
    """The tokens of a scenario line that an edit may replace: a rule's
    output, use, availability and guard positions, and a set's stamp."""
    if parts[0] == "rule":
        return [3, 4, 5, *range(7, len(parts), 2)]
    return [3] if parts[0] == "set" else []


def edited(seed, lineno, slot, value):
    """The text of case-2 corpus scenario `seed` with one token replaced."""
    lines = [list(parts) for parts in case2_lines(seed)]
    lines[lineno][slot] = str(value)
    return "\n".join(map(" ".join, lines)) + "\n"


def rule_edit(seed, prog, x, slot, value=None):
    """The edit of the rule of `prog` for input x in scenario `seed`: its
    token at `slot` becomes `value`, or its output is flipped."""
    lines = case2_lines(seed)
    lineno = next(i for i, p in enumerate(lines) if p[:3] == ("rule", prog, str(x)))
    if value is None:
        value = 1 - int(lines[lineno][slot])
    return seed, lineno, slot, value


@st.composite
def case2_edits(draw):
    """One token of a rule or set line of a case-2 corpus scenario (horizon
    100, so inputs 0..99), replaced: an output flipped, a use or an
    availability anywhere up to past the horizon, a guard position below
    the use, a stamp below the horizon."""
    seed = draw(st.integers(0, 9))
    lines = case2_lines(seed)
    lineno = draw(st.sampled_from([i for i, p in enumerate(lines) if edit_slots(p)]))
    parts = lines[lineno]
    slot = draw(st.sampled_from(edit_slots(parts)))
    if parts[0] == "set":
        values = st.integers(0, 99)
    elif slot == 3:
        values = st.just(1 - int(parts[3]))
    elif slot in (4, 5):
        values = st.integers(0, 110)
    else:
        values = st.integers(0, int(parts[4]) - 1)
    return seed, lineno, slot, draw(values)


def audit_message(*args):
    """The message of the HypothesisViolation the audit raises, or None."""
    try:
        audit_hypotheses(*args)
    except HypothesisViolation as exc:
        return str(exc)
    return None


# edits whose audit first fails on each operator at input 0 and at the last
# input, by a flipped output, and where an operator diverges, since its rule
# becomes available only past the horizon
GAMMA_AT_0 = rule_edit(0, "gamma", 0, 3)
DELTA_AT_0 = rule_edit(1, "delta", 0, 3)
GAMMA_AT_LAST = rule_edit(2, "gamma", 99, 3)
DELTA_AT_LAST = rule_edit(3, "delta", 99, 3)
DELTA_DIVERGES = rule_edit(4, "delta", 50, 5, 101)
FIXED_EDITS = {
    GAMMA_AT_0: "first operator disagrees with target at bit 0 (got",
    DELTA_AT_0: "second operator disagrees with target at bit 0 (got",
    GAMMA_AT_LAST: "first operator disagrees with target at bit 99 (got",
    DELTA_AT_LAST: "second operator disagrees with target at bit 99 (got",
    DELTA_DIVERGES: "second operator disagrees with target at bit 50 (got None",
}


class TestAuditFromTable:
    """The case-2 audit skips the inputs below the table's agree_prefix at
    the horizon and applies the operators only to name a failure; the walk
    from input 0 (no table) is the reference."""

    @settings(max_examples=200, deadline=None)
    @given(case2_edits())
    @example(GAMMA_AT_0)
    @example(DELTA_AT_0)
    @example(GAMMA_AT_LAST)
    @example(DELTA_AT_LAST)
    @example(DELTA_DIVERGES)
    def test_edited_scenarios_get_the_walks_verdict(self, edit):
        try:
            sc = parse_scenario(edited(*edit))
        except UsageError:
            return
        args = (
            sc.stage_set("A"), sc.stage_set("B"), sc.operator("gamma"),
            sc.operator("delta"), sc.use_bound(), sc.horizon,
        )
        assert audit_message(*args, sc.agreement_table()) == audit_message(*args)

    @pytest.mark.parametrize("edit", list(FIXED_EDITS))
    def test_fixed_edits_fail_where_named(self, edit):
        with pytest.raises(HypothesisViolation) as exc:
            load_scenario(edited(*edit))
        assert str(exc.value).startswith(FIXED_EDITS[edit])

    def test_corpus_work(self, monkeypatch):
        """load, run, render, parse and verify of upclosure_corpus(10): each
        case-1 scenario is audited twice, over 2 operators and 100 inputs;
        each case-2 audit reads the table its run builds anyway."""
        counts = Counter()

        def counted(name, fn):
            def call(*args):
                counts[name] += 1
                return fn(*args)

            return call

        init = WttAgreementTable.__init__
        monkeypatch.setattr(upclosure, "wtt_apply", counted("wtt_apply", wtt_apply))
        monkeypatch.setattr(functionals, "evaluate", counted("evaluate", functionals.evaluate))
        monkeypatch.setattr(WttAgreementTable, "__init__", counted("tables", init))
        for _, sc in upclosure_corpus(10):
            trace = run_scenario(load_scenario(sc.canonical())).render()
            assert verify_trace(parse_trace(trace)).passed
        assert (counts["wtt_apply"], counts["evaluate"], counts["tables"]) == (4000, 4000, 20)


def naive_agreement(a, b, gamma, delta, f, horizon):
    """rows[w][t]: whether each operator, applied to the stage-t snapshot of
    its source at stage t, gives the final target bit of input w."""
    a_final, b_final = a.snapshot(horizon), b.snapshot(horizon)
    a_snaps = [bits_of(a.snapshot(t)) for t in range(horizon + 1)]
    b_snaps = [bits_of(b.snapshot(t)) for t in range(horizon + 1)]
    return [
        [
            (
                wtt_apply(gamma, a_snaps[t], w, t) == int(w in b_final),
                wtt_apply(delta, b_snaps[t], w, t) == int(w in a_final),
            )
            for t in range(horizon + 1)
        ]
        for w in range(min(f.domain, horizon))
    ]


def assert_table_matches_naive(a, b, gamma, delta, f, horizon):
    table = WttAgreementTable(a, b, gamma, delta, f, horizon)
    rows = naive_agreement(a, b, gamma, delta, f, horizon)
    assert table.width == len(rows)
    for t in range(horizon + 1):
        for w, row in enumerate(rows):
            got = (table._ok(table._gamma, w, t), table._ok(table._delta, w, t))
            assert got == row[t], (w, t)
        bad = [w for w, row in enumerate(rows) if not all(row[t])]
        assert table.agree_prefix(t) == min(bad, default=len(rows)), t


@st.composite
def agreement_inputs(draw):
    """Stage sets and deterministic operators with guards on both bits,
    late availability and uses below the bound. An input has no rules, two
    rules that pin a common pivot to opposite bits, or several compatible
    rules of one output and use (sub-guards of one assignment) with their
    own availability; such an assignment may pin a position that never
    enters to 1, or one that enters after stage 0 to 0."""
    horizon = draw(st.integers(1, 12))
    table, prev = [], 1
    for x in range(draw(st.integers(1, 10))):
        prev = max(prev, x + 1) + draw(st.integers(0, 2))
        table.append(prev)
    f = UseBound(table=tuple(table))
    top = table[-1] + 2
    stamps = st.dictionaries(
        st.integers(0, top), st.integers(0, horizon), max_size=8
    )
    a = StageSet(draw(stamps).items(), horizon=horizon)
    b = StageSet(draw(stamps).items(), horizon=horizon)

    def pivot_rules(x):
        # rules for one input pin a common pivot to opposite bits
        pivot = draw(st.integers(0, f(x) - 1))
        for bit in (0, 1):
            use = draw(st.integers(pivot + 1, f(x)))
            extra = draw(st.dictionaries(st.integers(0, use - 1), st.integers(0, 1)))
            extra[pivot] = bit
            yield extra, draw(st.integers(0, 1)), use

    def compatible_rules(x, source):
        use = draw(st.integers(0, f(x)))
        below = range(use)
        assignment = {}
        if use:
            bits = st.dictionaries(st.sampled_from(below), st.integers(0, 1))
            assignment = draw(bits)
        never = [p for p in below if p not in source]
        late = [p for p in below if source.entry.get(p, 0) > 0]
        if never and draw(st.booleans()):
            assignment[draw(st.sampled_from(never))] = 1
        if late and draw(st.booleans()):
            assignment[draw(st.sampled_from(late))] = 0
        output = draw(st.integers(0, 1))
        for _ in range(draw(st.integers(2, 3))):
            guard = {p: bit for p, bit in assignment.items() if draw(st.booleans())}
            yield guard, output, use

    def operator(source):
        rules = []
        for x in range(f.domain):
            if draw(st.booleans()):
                continue
            compatible = draw(st.booleans())
            group = compatible_rules(x, source) if compatible else pivot_rules(x)
            for guard, output, use in group:
                rules.append(
                    OracleRule(
                        guard=tuple(guard.items()),
                        input=x,
                        output=output,
                        use=use,
                        available_at=draw(st.integers(0, horizon + 1)),
                    )
                )
        return UseBoundedOperator(program=OracleProgram(rules), bound=f)

    return a, b, operator(a), operator(b), f, horizon


class TestAgreementTable:
    @pytest.mark.parametrize("tag", [1, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_stage_snapshots_on_corpus(self, seed, tag):
        sc = upclosure_scenario(seed, tag)
        f = sc.use_bound()
        gamma, delta = (
            UseBoundedOperator(program=sc.program(name), bound=f)
            for name in ("gamma", "delta")
        )
        a, b = sc.stage_set("A"), sc.stage_set("B")
        assert_table_matches_naive(a, b, gamma, delta, f, sc.horizon)

    @settings(max_examples=100, deadline=None)
    @given(agreement_inputs())
    def test_matches_per_stage_snapshots(self, inputs):
        assert_table_matches_naive(*inputs)

    def test_build_applies_no_operator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("operator applied while building the table")

        for module in (functionals, upclosure):
            monkeypatch.setattr(module, "wtt_apply", refuse)
        monkeypatch.setattr(functionals, "evaluate", refuse)
        for seed in range(3):
            sc = upclosure_scenario(seed, 2)
            f = sc.use_bound()
            gamma, delta = (
                UseBoundedOperator(program=sc.program(name), bound=f)
                for name in ("gamma", "delta")
            )
            table = WttAgreementTable(
                sc.stage_set("A"), sc.stage_set("B"), gamma, delta, f, sc.horizon
            )
            assert table.agree_prefix(sc.horizon) > 0


def naive_row(op, w, entry, want, horizon):
    """The agreement row of input w, each rule's window walked position by
    position: (stages at which the value changes, the values)."""
    windows = []
    ends = {0}
    for available_at, _, mask, ones, output in op.program.compiled_for(w):
        lo, hi = available_at, horizon + 1
        for p in range(mask.bit_length()):
            if not mask >> p & 1:
                continue
            t = entry.get(p)
            if ones >> p & 1:
                lo = hi if t is None else max(lo, t)
            elif t is not None:
                hi = min(hi, t)
        if lo < hi:
            windows.append((lo, hi, output == want))
            ends.update((lo, hi))
    stages, values = [], []
    for t in sorted(ends):
        if t > horizon:
            break
        value = next((ok for lo, hi, ok in windows if lo <= t < hi), False)
        if not values or value != values[-1]:
            stages.append(t)
            values.append(value)
    return stages, values


def per_stage(row, horizon):
    """A row's value at every stage 0..horizon; a row starts at stage 0."""
    stages, values = row
    assert stages[0] == 0
    ends = stages[1:] + [horizon + 1]
    return [v for v, lo, hi in zip(values, stages, ends) for _ in range(lo, hi)]


def assert_rows_match_naive(a, b, gamma, delta, f, horizon):
    """Every row of the table equals the naive row, value for value and in
    shape, and its stage list equals the naive reference's; returns it."""
    table = WttAgreementTable(a, b, gamma, delta, f, horizon)
    a_final, b_final = a.snapshot(horizon), b.snapshot(horizon)
    assert table.width == min(f.domain, horizon)
    assert table.candidate_stages == naive_upclosure.candidate_stages(
        table, gamma, delta, horizon
    )
    for w in range(table.width):
        for got, op, entry, target in (
            (table._gamma[w], gamma, a.entry, b_final),
            (table._delta[w], delta, b.entry, a_final),
        ):
            want = naive_row(op, w, entry, int(w in target), horizon)
            assert per_stage(got, horizon) == per_stage(want, horizon), w
            assert got == want, w
    return table


def operators(sc):
    f = sc.use_bound()
    return f, *(
        UseBoundedOperator(program=OracleProgram(sc.rules[name]), bound=f)
        for name in ("gamma", "delta")
    )


@st.composite
def mutated_case2(draw):
    """A case-2 corpus scenario whose rules are edited: a guard replaced by
    another rule's (cut below the use), a bit flipped or a pair dropped, an
    availability moved, or a copy of a rule added with its own availability.
    Each input keeps one output and use, so the programs stay deterministic."""
    sc = upclosure_scenario(draw(st.integers(0, 99)), 2)
    for name in ("gamma", "delta"):
        rules = sc.rules[name]
        for _ in range(draw(st.integers(0, 12))):
            i = draw(st.integers(0, len(rules) - 1))
            r = rules[i]
            guard, avail = list(r.guard), r.available_at
            op = draw(st.sampled_from(["share", "flip", "drop", "avail", "copy"]))
            if op == "share":
                other = rules[draw(st.integers(0, len(rules) - 1))].guard
                guard = [(p, bit) for p, bit in other if p < r.use]
            elif op in ("flip", "drop") and guard:
                k = draw(st.integers(0, len(guard) - 1))
                p, bit = guard.pop(k)
                if op == "flip":
                    guard.insert(k, (p, 1 - bit))
            else:
                avail = draw(st.integers(0, sc.horizon + 1))
            new = OracleRule(tuple(guard), r.input, r.output, r.use, avail)
            if op == "copy":
                rules.append(new)
            else:
                rules[i] = new
    return sc


class TestAgreementRowsAgainstNaive:
    """Rows built once per distinct guard window equal the per-rule walk at
    every stage from 0 to the horizon."""

    # position 1 enters A at stage 3 and position 2 at stage 6; B stays
    # empty, so a gamma rule for input 0 is ok when it outputs 0
    @pytest.mark.parametrize(
        "rules, row",
        [
            # one live window, lo = 0 and hi = horizon + 1
            ([((), 0, 0)], ([0], [True])),
            ([((), 1, 0)], ([0], [False])),  # not ok
            ([(((1, 1),), 0, 0)], ([0, 3], [False, True])),  # lo > 0
            ([((), 0, 4)], ([0, 4], [False, True])),  # lo from availability
            ([(((2, 0),), 1, 1)], ([0], [False])),  # lo > 0, hi <= horizon, not ok
            ([(((2, 0),), 0, 0)], ([0, 6], [True, False])),  # hi <= horizon
            ([(((1, 1), (2, 0)), 0, 0)], ([0, 3, 6], [False, True, False])),
            ([(((2, 0),), 0, 7)], ([0], [False])),  # emptied by availability
            ([(((0, 1),), 0, 0)], ([0], [False])),  # a 1-position never enters
            # two live windows: end to end, of different values, overlapping
            ([(((1, 0),), 0, 0), (((1, 1), (2, 0)), 0, 0)], ([0, 6], [True, False])),
            ([(((1, 0),), 0, 0), (((1, 1),), 1, 0)], ([0, 3], [True, False])),
            ([((), 0, 5), (((2, 0),), 0, 0)], ([0], [True])),
        ],
    )
    def test_row_shapes(self, rules, row):
        f = UseBound(table=(3, 4, 5))
        a = StageSet([(1, 3), (2, 6)], horizon=10)
        b = StageSet([], horizon=10)
        rules = [OracleRule(guard, 0, output, 3, at) for guard, output, at in rules]
        gamma = UseBoundedOperator(program=OracleProgram(rules), bound=f)
        delta = UseBoundedOperator(program=OracleProgram(), bound=f)
        table = assert_rows_match_naive(a, b, gamma, delta, f, 10)
        assert table._gamma[0] == row

    def test_every_case2_corpus_scenario(self):
        for name, sc in upclosure_corpus():
            if sc.case.tag != 2:
                continue
            f, gamma, delta = operators(sc)
            a, b = sc.stage_set("A"), sc.stage_set("B")
            assert_rows_match_naive(a, b, gamma, delta, f, sc.horizon)

    @settings(max_examples=40, deadline=None)
    @given(mutated_case2())
    def test_mutated_guards_and_availabilities(self, sc):
        f, gamma, delta = operators(sc)
        a, b = sc.stage_set("A"), sc.stage_set("B")
        assert_rows_match_naive(a, b, gamma, delta, f, sc.horizon)


def recovery_calls(sc, name, flips):
    """The arguments of one recover_m_next call per block of the scenario's
    case-2 m-sequence, on Z with each count of bits in `flips` flipped, the
    operators and horizon its table was built from, and the block
    (m_n, m_{n+1}] each call ends at."""
    f, gamma, delta = operators(sc)
    a, b = sc.stage_set("A"), sc.stage_set("B")
    values, _ = m_sequence(*covered_points(a.final() | b.final(), f), 9)
    table = WttAgreementTable(a, b, gamma, delta, f, sc.horizon)
    z = encode_separator(sc.stage_set("C").final(), values, a.final(), b.final())
    rng = random.Random(name)
    calls = []
    for count in flips:
        bits = list(z.bits)
        for y in rng.sample(range(len(bits)), min(count, len(bits))):
            bits[y] = "1" if bits[y] == "0" else "0"
        zz = SeparatorSnapshot("".join(bits))
        for n in range(len(values) - 1):
            calls.append(
                ((zz, values[: n + 1], table), (gamma, delta, sc.horizon), values[n + 1])
            )
    return calls


def unguarded(seed):
    """A case-2 corpus scenario whose A and B entry stages are drawn anew and
    whose rules lose their guards, some also their availability: the
    operators then agree early, so the cover conditions decide."""
    sc = upclosure_scenario(seed, 2)
    rng = random.Random(seed)
    for name in ("A", "B"):
        sc.sets[name] = [(e, rng.randrange(sc.horizon)) for e, _ in sc.sets[name]]
    for name in ("gamma", "delta"):
        sc.rules[name] = [
            OracleRule((), r.input, r.output, r.use, rng.choice((0, r.available_at)))
            for r in sc.rules[name]
        ]
    return sc


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def assert_blocks_match(block):
    for name in ("decode_block", "simultaneous_agreement_stages"):
        got = outcome(getattr(upclosure, name), *block)
        assert got == outcome(getattr(naive_upclosure, name), *block), (name, block)


def block(bits, a_entry, b_entry, m_n1, horizon):
    """The block (-1, m_n1] of Z = bits against A and B entering as given."""
    a = StageSet(a_entry.items(), horizon=horizon)
    b = StageSet(b_entry.items(), horizon=horizon)
    return SeparatorSnapshot(bits), a, b, -1, m_n1, horizon


@st.composite
def random_blocks(draw):
    """Any Z, A and B entry stages drawn independently, any block: windows
    that overlap, which no m-sequence block has."""
    horizon = draw(st.integers(1, 12))
    z = SeparatorSnapshot(draw(st.text("01", min_size=1, max_size=10)))
    stages = st.dictionaries(st.integers(0, z.length - 1), st.integers(0, horizon))
    a = StageSet(draw(stages).items(), horizon=horizon)
    b = StageSet(draw(stages).items(), horizon=horizon)
    m_n = draw(st.integers(-1, z.length - 1))
    return z, a, b, m_n, draw(st.integers(m_n, z.length - 1)), horizon


class TestOperatorsBuiltOnce:
    def test_each_scenario_builds_each_operator_once(self, monkeypatch):
        built = []
        init = UseBoundedOperator.__init__

        def counted(self, program, bound):
            init(self, program, bound)
            built.append(self)

        monkeypatch.setattr(UseBoundedOperator, "__init__", counted)
        for case in (1, 2):
            built.clear()
            sc = load_scenario(upclosure_scenario(3, case).canonical())
            assert sc.operator("gamma") is sc.operator("gamma")
            assert verify_trace(parse_trace(run_scenario(sc).render())).passed
            # gamma and delta: for the schema check, the audit and the
            # pipeline of the loaded scenario, then of the trace's
            assert len(built) == 4

    @pytest.mark.parametrize("case, tables", [(1, 0), (2, 2)])
    def test_each_scenario_builds_its_sets_and_table_once(self, case, tables, monkeypatch):
        built = Counter()
        for cls in (StageSet, WttAgreementTable):

            def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        sc = load_scenario(upclosure_scenario(3, case).canonical())
        assert sc.stage_set("A") is sc.stage_set("A")
        assert verify_trace(parse_trace(run_scenario(sc).render())).passed
        # A, B and C for the loaded scenario, then for the trace's; a case-2
        # table for each, which its audit builds and its pipeline reads
        assert (built[StageSet], built[WttAgreementTable]) == (6, tables)


@pytest.mark.parametrize("case", [1, 2])
def test_pipeline_takes_one_snapshot_per_set(monkeypatch, case):
    """One pipeline run snapshots A, B and C once each, at the horizon: the
    case check and the boundaries share one list of covered points, and the
    agreement table reads the entry maps."""
    sc = upclosure_scenario(3, case)
    stages = []
    snapshot = StageSet.snapshot

    def counted(self, s):
        stages.append(s)
        return snapshot(self, s)

    monkeypatch.setattr(StageSet, "snapshot", counted)
    out = run_upclosure_pipeline(sc)
    assert out["blocks"] and bool(out["recovered"]) == (case == 2)
    assert stages == [sc.horizon] * 3


class TestWindowFoldAgainstNaive:
    """The one window fold, the carried (m_n, x] windows, and the stage list
    and cover stages built once per table give the results and errors of the
    decoders as first written (tests/naive_upclosure.py)."""

    @staticmethod
    def assert_match(calls):
        got = [outcome(upclosure.recover_m_next, *args) for args, _, _ in calls]
        want = [
            outcome(naive_upclosure.recover_m_next, *args, *built)
            for args, built, _ in calls
        ]
        assert got == want
        # each table works agree_prefix out once per stage; the reference
        # walks it afresh on every call
        tables = {id(args[-1]): args[-1] for args, _, _ in calls}.values()
        assert any(table._prefixes for table in tables)
        for table in tables:
            for s, w in table._prefixes.items():
                assert w == naive_upclosure.agree_prefix(table, s) == table.agree_prefix(s)
        for (z, prefix, table), (_, _, horizon), m_n1 in calls:
            assert_blocks_match((z, table.a, table.b, prefix[-1], m_n1, horizon))
        return want

    def test_every_corpus_block_with_flipped_bits(self):
        """Every block of the case-2 m-sequence of all 200 corpus scenarios,
        on the true Z and on Z with 1, 3 or 6 bits flipped."""
        calls = [
            call
            for name, sc in upclosure_corpus()
            for call in recovery_calls(sc, name, (0, 1, 3, 6))
        ]
        assert len(calls) == 3164
        assert self.assert_match(calls).count("not settled") == 1556

    def test_unguarded_operators(self):
        calls = []
        for seed in range(40):
            calls += recovery_calls(unguarded(seed), seed, (0,))
        self.assert_match(calls)

    @settings(max_examples=300, deadline=None)
    @given(random_blocks())
    # block(z, A's entry stages, B's, m_{n+1}, horizon); each block is
    # position 0, or positions 0 and 1, and the decoder's answer follows
    @example(block("1", {0: 0}, {0: 3}, 0, 5))  # both open at 0: (0, 3)
    @example(block("1", {0: 0}, {0: 5}, 0, 5))  # B closes at 4: (0, 5)
    @example(block("1", {0: 0}, {}, 0, 5))  # both open to the horizon
    @example(block("1", {}, {0: 2}, 0, 3))  # A never agrees: (1, 0)
    @example(block("1", {}, {0: 0}, 0, 3))  # neither ever agrees
    @example(block("10", {0: 2, 1: 4}, {}, 1, 5))  # A on [2, 3] alone: (0, 2)
    def test_random_blocks(self, block):
        assert_blocks_match(block)
