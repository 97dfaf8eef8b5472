"""Block coding into separators: case split, boundaries, encode/decode."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_upclosure
import sepsim.functionals as functionals
import sepsim.upclosure as upclosure
from sepsim.corpus import upclosure_corpus, upclosure_scenario
from sepsim.enumcore import SeparatorSnapshot, StageSet
from sepsim.errors import HypothesisViolation
from sepsim.functionals import (
    OracleProgram,
    OracleRule,
    UseBound,
    UseBoundedOperator,
    bits_of,
    wtt_apply,
)
from sepsim.scenario import load_scenario
from sepsim.trace import parse_trace, run_scenario
from sepsim.upclosure import (
    CaseTag,
    WttAgreementTable,
    audit_hypotheses,
    classify_case,
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
        assert classify_case(a, b, f, 20, CaseTag(1, 0))

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
        # threshold ceil(40/10) = 4 > 2: case 2 declared inconsistent
        assert not classify_case(a, b, f, 40, CaseTag(2))
        # case 1 with k above the covered points is consistent
        assert classify_case(a, b, f, 40, CaseTag(1, 10))
        assert not classify_case(a, b, f, 40, CaseTag(1, 4))


class TestMSequence:
    def test_case1_iterates_f(self):
        f = UseBound(table=tuple(x + 1 for x in range(10)))
        res = m_sequence(CaseTag(1, 3), set(), set(), f, 3)
        assert res.values == [3, 4, 5] and res.complete

    def test_case1_doubling(self):
        f = UseBound(table=tuple(2 * x + 1 for x in range(10)))
        res = m_sequence(CaseTag(1, 1), set(), set(), f, 3)
        assert res.values == [1, 3, 7]

    def test_case1_table_exhausted(self):
        f = UseBound(table=tuple(2 * x + 1 for x in range(5)))
        with pytest.raises(ValueError, match="bound table exhausted"):
            m_sequence(CaseTag(1, 1), set(), set(), f, 5)

    def test_case2_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(30):
            f = UseBound(table=tuple(x + 2 for x in range(60)))
            union = set(rng.sample(range(60), rng.randrange(20, 50)))
            a = {y for y in union if rng.random() < 0.5}
            b = union - a
            res = m_sequence(CaseTag(2), a, b, f, 6)
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
            assert res.values == expected
            # strict monotonicity always
            assert all(u < v for u, v in zip(res.values, res.values[1:]))


class TestEncodeDecode:
    def setup_scenario(self, seed, case_tag):
        rng = random.Random(seed)
        sc = build_settled(rng, case_tag)
        count = 9
        if case_tag == 1:
            res = m_sequence(
                sc["case"], sc["a"].final(), sc["b"].final(), sc["f"], count
            )
        else:
            res = m_sequence(
                sc["case"], sc["a"].final(), sc["b"].final(), sc["f"], count
            )
        values = res.values
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
            res = m_sequence(
                CaseTag(2), sc["a"].final(), sc["b"].final(), sc["f"], 8
            )
            values = res.values
            blocks = len(values) - 1
            if blocks < 2:
                continue
            c = {n for n in range(blocks) if rng.random() < 0.5}
            z = encode_separator(c, values, sc["a"].final(), sc["b"].final())
            table = WttAgreementTable(
                sc["a"], sc["b"], sc["gamma"], sc["delta"], sc["f"], sc["horizon"]
            )
            for n in range(blocks):
                got, stage = recover_m_next(
                    z,
                    sc["a"],
                    sc["b"],
                    sc["gamma"],
                    sc["delta"],
                    sc["f"],
                    values[: n + 1],
                    sc["horizon"],
                    table=table,
                )
                assert got == values[n + 1], f"seed {seed} index {n + 1}"
                hits += 1
        assert hits > 0

    def test_corrupted_z_not_settled_or_mismatch(self):
        rng = random.Random(404)
        sc = build_settled(rng, 2)
        res = m_sequence(CaseTag(2), sc["a"].final(), sc["b"].final(), sc["f"], 6)
        values = res.values
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
            got, _ = recover_m_next(
                z2,
                sc["a"],
                sc["b"],
                sc["gamma"],
                sc["delta"],
                sc["f"],
                values[:2],
                sc["horizon"],
                table,
            )
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
        res = m_sequence(CaseTag(2), a_mem, b_mem, f, 3)
        # direct recursion: m_1 is the least x > -1 with a gap below and
        # (x, f(x)] covered
        assert res.values[0] == -1
        z = encode_separator(set(), res.values, a_mem, b_mem)
        table = WttAgreementTable(a, b, gamma, delta, f, 20)
        got, _ = recover_m_next(
            z, a, b, gamma, delta, f, res.values[:1], 20, table
        )
        assert got == res.values[1]


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
    table = WttAgreementTable(a, b, gamma, delta, f, horizon)
    a_final, b_final = a.snapshot(horizon), b.snapshot(horizon)
    assert table.width == min(f.domain, horizon)
    for w in range(table.width):
        for got, op, entry, target in (
            (table._gamma[w], gamma, a.entry, b_final),
            (table._delta[w], delta, b.entry, a_final),
        ):
            want = naive_row(op, w, entry, int(w in target), horizon)
            assert per_stage(got, horizon) == per_stage(want, horizon), w


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
    case-2 m-sequence, on Z with each count of bits in `flips` flipped, and
    the block (m_n, m_{n+1}] each call ends at."""
    f, gamma, delta = operators(sc)
    a, b = sc.stage_set("A"), sc.stage_set("B")
    values = m_sequence(CaseTag(2), a.final(), b.final(), f, 9).values
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
            args = (zz, a, b, gamma, delta, f, values[: n + 1], sc.horizon, table)
            calls.append((args, values[n + 1]))
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


class TestWindowFoldAgainstNaive:
    """The one window fold, the carried (m_n, x] windows and the per-call
    cover stages give the results and errors of the decoders as first
    written (tests/naive_upclosure.py)."""

    @staticmethod
    def assert_match(calls):
        got = [outcome(upclosure.recover_m_next, *args) for args, _ in calls]
        want = [outcome(naive_upclosure.recover_m_next, *args) for args, _ in calls]
        assert got == want
        # each table works agree_prefix out once per stage; the reference
        # walks it afresh on every call
        tables = {id(args[-1]): args[-1] for args, _ in calls}.values()
        assert any(table._prefixes for table in tables)
        for table in tables:
            for s, w in table._prefixes.items():
                assert w == naive_upclosure.agree_prefix(table, s) == table.agree_prefix(s)
        for (z, a, b, _, _, _, prefix, horizon, _), m_n1 in calls:
            assert_blocks_match((z, a, b, prefix[-1], m_n1, horizon))
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
    def test_random_blocks(self, block):
        assert_blocks_match(block)
