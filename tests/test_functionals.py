"""Oracle programs, evaluation, use bounds, wtt application."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naive_parse import naive_compatible, naive_rule
from rule_rows import program_of
from sepsim.functionals import (
    OracleProgram,
    OracleRule,
    UseBound,
    UseBoundedOperator,
    bits_of,
    evaluate,
    wtt_apply,
)


def oracle(bits: str) -> tuple[int, int]:
    """The (int, length) oracle of a '0'/'1' string."""
    return bits_of(i for i, c in enumerate(bits) if c == "1"), len(bits)


def brute_evaluate(prog, bits, y, s):
    """Reference: scan every rule, pick least (use, available_at)."""
    matches = []
    for r in prog.rules:
        if r.input != y or r.available_at > s or r.use > len(bits):
            continue
        if all(bits[p] == "01"[b] for p, b in r.guard):
            matches.append(r)
    if not matches:
        return None
    best = min(matches, key=lambda r: (r.use, r.available_at))
    return (best.output, best.use)


def random_valid_program(rng, n_rules=10, max_pos=5):
    """Random deterministic program: per input, guards pin a common position
    to opposite bits so any two rules for one input are incompatible."""
    rules = []
    for _ in range(n_rules):
        y = rng.randrange(0, 4)
        pivot = rng.randrange(0, max_pos)
        bit = rng.randrange(0, 2)
        extra = []
        if rng.random() < 0.5:
            q = rng.randrange(0, max_pos)
            if q != pivot:
                extra = [(q, rng.randrange(0, 2))]
        use = max([pivot] + [p for p, _ in extra]) + 1 + rng.randrange(0, 2)
        rules.append(
            OracleRule(
                guard=tuple([(pivot, bit)] + extra),
                input=y,
                output=rng.randrange(0, 2),
                use=use,
                available_at=rng.randrange(0, 3),
            )
        )
    # Deduplicate conflicting pairs by keeping the first of each clash.
    kept = []
    for r in rules:
        try:
            program_of(kept + [r])
            kept.append(r)
        except ValueError:
            pass
    return program_of(kept)


class TestEvaluate:
    def test_empty_program_diverges(self):
        prog = OracleProgram()
        for y in range(5):
            assert evaluate(prog, *oracle("10101"), y, 100) is None

    def test_direct_match(self):
        prog = program_of(
            [OracleRule(guard=((0, 1),), input=5, output=0, use=1)]
        )
        assert evaluate(prog, *oracle("1"), 5, 0) == (0, 1)
        assert evaluate(prog, *oracle("111"), 5, 0) == (0, 1)

    def test_short_oracle_diverges(self):
        prog = program_of(
            [OracleRule(guard=((0, 1),), input=5, output=0, use=3)]
        )
        # guard satisfied but the oracle is shorter than the use
        assert evaluate(prog, *oracle("11"), 5, 0) is None
        assert evaluate(prog, *oracle("110"), 5, 0) == (0, 3)

    def test_not_yet_available(self):
        prog = program_of(
            [OracleRule(guard=(), input=0, output=1, use=0, available_at=7)]
        )
        assert evaluate(prog, *oracle(""), 0, 6) is None
        assert evaluate(prog, *oracle(""), 0, 7) == (1, 0)

    def test_agrees_with_brute_force(self):
        rng = random.Random(101)
        for _ in range(30):
            prog = random_valid_program(rng)
            for s in range(0, 4):
                for y in range(0, 4):
                    for length in range(0, 7):
                        for v in range(1 << length):
                            bits = format(v, f"0{length}b") if length else ""
                            got = evaluate(prog, *oracle(bits), y, s)
                            assert got == brute_evaluate(prog, bits, y, s)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(0, 3))
    def test_int_oracle_matches_string_reference(self, seed, s):
        # guard positions up to 80 make oracle ints wider than a machine word
        rng = random.Random(seed)
        prog = random_valid_program(rng, n_rules=30, max_pos=80)
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(91)))
        for y in range(4):
            assert evaluate(prog, *oracle(bits), y, s) == brute_evaluate(
                prog, bits, y, s
            )

    def test_stage_monotonicity(self):
        rng = random.Random(55)
        for _ in range(20):
            prog = random_valid_program(rng)
            for v in range(1 << 5):
                bits = format(v, "05b")
                for y in range(4):
                    prev = None
                    for s in range(5):
                        res = evaluate(prog, *oracle(bits), y, s)
                        if prev is not None:
                            assert res == prev
                        if res is not None:
                            prev = res

    def test_use_honesty_flipping(self):
        rng = random.Random(77)
        for _ in range(20):
            prog = random_valid_program(rng)
            for v in range(1 << 8):
                bits = format(v, "08b")
                for y in range(4):
                    res = evaluate(prog, *oracle(bits), y, 9)
                    if res is None:
                        continue
                    _, use = res
                    for p in range(use, 8):
                        flipped = bits[:p] + ("1" if bits[p] == "0" else "0") + bits[p + 1 :]
                        assert evaluate(prog, *oracle(flipped), y, 9) == res

    def test_nondeterminism_rejected(self):
        with pytest.raises(ValueError, match="nondeterministic"):
            program_of(
                [
                    OracleRule(guard=(), input=0, output=0, use=0),
                    OracleRule(guard=((1, 1),), input=0, output=1, use=2),
                ]
            )

    def test_guard_use_honesty_rejected(self):
        with pytest.raises(ValueError, match="use-honesty"):
            OracleRule(guard=((3, 1),), input=0, output=0, use=2)


HONESTY = "use-honesty violated: guard position"


class TestOracleRuleErrors:
    # one message each, in the order the checks run: a repeated position
    # before any bad entry, then entry by entry in position order (a bad
    # entry before its use-honesty), then the naturals, then the output
    @pytest.mark.parametrize(
        "guard, fields, message",
        [
            (((3, 7), (3, 1)), (0, 0, 4), "guard mentions a position twice"),
            (((9, 0), (2, 5), (9, 1)), (0, 0, 4), "guard mentions a position twice"),
            (((-1, 0),), (0, 0, 4), "bad guard entry (-1, 0)"),
            (((7, 2),), (0, 0, 4), "bad guard entry (7, 2)"),
            (((1, 2), (5, 0)), (0, 0, 4), "bad guard entry (1, 2)"),
            (((6, 2), (5, 0)), (0, 0, 4), f"{HONESTY} 5 >= use 4"),
            (((5, 0),), (-1, 2, 4), f"{HONESTY} 5 >= use 4"),
            (((0, 1),), (0, 0, -1), f"{HONESTY} 0 >= use -1"),
            ((), (-1, 2, 4), "rule fields must be naturals"),
            ((), (0, 0, 4, -1), "rule fields must be naturals"),
            ((), (0, 2, 4), "output must be a bit"),
        ],
    )
    def test_message_and_order(self, guard, fields, message):
        for build in (OracleRule, naive_rule):
            with pytest.raises(ValueError) as excinfo:
                build(guard, *fields)
            assert str(excinfo.value) == message

    def test_guard_is_stored_sorted_as_a_tuple(self):
        assert OracleRule(((3, 1), (1, 0)), 0, 0, 4).guard == ((1, 0), (3, 1))
        assert OracleRule([(1, 0), (3, 1)], 0, 0, 4).guard == ((1, 0), (3, 1))
        assert OracleRule(iter([(3, 1), (1, 0)]), 0, 0, 4).guard == ((1, 0), (3, 1))


def guards(max_pos=8):
    """Guards with distinct positions below max_pos, in any order."""
    return st.dictionaries(
        st.integers(0, max_pos - 1), st.integers(0, 1), max_size=max_pos
    ).map(lambda d: tuple(d.items()))


def naive_conflict(rules):
    """The first input, in order of first appearance, with two compatible
    rules that disagree on output or use; None when there is none."""
    by_input = {}
    for r in rules:
        by_input.setdefault(r.input, []).append(r)
    for y, rs in by_input.items():
        for i, a in enumerate(rs):
            for b in rs[i + 1 :]:
                if naive_compatible(a.guard, b.guard) and (
                    a.output != b.output or a.use != b.use
                ):
                    return y
    return None


class TestDeterminismCheck:
    @settings(max_examples=300, deadline=None)
    @given(
        ga=guards(), gb=guards(), out_a=st.integers(0, 1), out_b=st.integers(0, 1)
    )
    def test_mask_check_matches_dict_check(self, ga, gb, out_a, out_b):
        rules = [OracleRule(ga, 0, out_a, 8), OracleRule(gb, 0, out_b, 8)]
        clash = naive_compatible(ga, gb) and out_a != out_b
        if clash:
            with pytest.raises(ValueError, match="nondeterministic"):
                program_of(rules)
        else:
            program_of(rules)

    @settings(max_examples=200, deadline=None)
    @given(
        rules=st.lists(
            st.builds(
                lambda g, y, out, extra: OracleRule(g, y, out, 6 + extra),
                guards(6),
                st.integers(0, 3),
                st.integers(0, 1),
                st.integers(0, 1),
            ),
            max_size=12,
        )
    )
    def test_program_names_the_same_input(self, rules):
        y = naive_conflict(rules)
        if y is None:
            program_of(rules)
            return
        with pytest.raises(ValueError) as excinfo:
            program_of(rules)
        assert str(excinfo.value) == (
            f"nondeterministic program: rules for input {y} with "
            f"compatible guards disagree on output or use"
        )


class TestUseBound:
    def test_strictness(self):
        with pytest.raises(ValueError, match="not strict"):
            UseBound(table=(0,))

    def test_monotonicity(self):
        with pytest.raises(ValueError, match="not monotone"):
            UseBound(table=(5, 2))

    def test_exhausted(self):
        f = UseBound(table=(1, 2, 3))
        with pytest.raises(ValueError, match="bound table exhausted"):
            f(3)


def identity_operator(domain):
    """Output = oracle bit at x, with use x + 1."""
    rules = []
    for x in range(domain):
        rules.append(OracleRule(guard=((x, 1),), input=x, output=1, use=x + 1))
        rules.append(OracleRule(guard=((x, 0),), input=x, output=0, use=x + 1))
    bound = UseBound(table=tuple(x + 1 for x in range(domain)))
    return UseBoundedOperator(program=program_of(rules), bound=bound)


class TestWttApply:
    def test_identity_reads_member(self):
        op = identity_operator(6)
        assert wtt_apply(op, bits_of({2}), 2, 0) == 1

    def test_identity_reads_hole(self):
        op = identity_operator(6)
        assert wtt_apply(op, 0, 2, 0) == 0

    def test_bound_exhausted(self):
        op = identity_operator(3)
        with pytest.raises(ValueError, match="bound table exhausted"):
            wtt_apply(op, 0, 3, 0)

    def test_rule_use_over_bound_rejected(self):
        bound = UseBound(table=(1,))
        prog = program_of([OracleRule(guard=(), input=0, output=0, use=2)])
        with pytest.raises(ValueError, match="use 2 > bound"):
            UseBoundedOperator(program=prog, bound=bound)

    def test_agreement_check_matches_bitwise_brute_force(self):
        # A scripted settled pair: operator reads the oracle; check bit-by-bit
        # agreement with the target set on an initial segment.
        rng = random.Random(31)
        for _ in range(20):
            domain = 9
            a = set(rng.sample(range(domain + 2), 4))
            op = identity_operator(domain + 1)
            target = {x for x in range(domain) if x in a}
            for x in range(9):
                got = wtt_apply(op, bits_of(a), x, 0)
                assert got == (1 if x in a else 0)
            agree = all(
                wtt_apply(op, bits_of(a), x, 0) == (1 if x in target else 0)
                for x in range(9)
            )
            brute = all((x in a) == (x in target) for x in range(9))
            assert agree == brute
