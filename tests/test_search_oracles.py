"""Exhaustive cross-validation of the three search routines against
brute-force enumeration on small instances."""

import random

from sepsim.anticomplete import sigma_search
from sepsim.enumcore import SeparatorSnapshot, StageSet
from sepsim.functionals import (
    OracleProgram,
    OracleRule,
    UseBound,
    UseBoundedOperator,
    bits_of,
    evaluate,
)
from sepsim.twodegrees import TwoDegreesRun, column_threshold
from sepsim.upclosure import encode_separator, recover_m_next
from test_functionals import oracle


def random_small_program(rng, max_pos, n_inputs):
    """Valid program with assorted guard shapes over few positions."""
    rules = []
    for y in range(n_inputs):
        style = rng.random()
        if style < 0.3:
            rules.append(
                OracleRule(guard=(), input=y, output=rng.randrange(2), use=0,
                           available_at=rng.randrange(0, 3))
            )
        elif style < 0.8:
            p = rng.randrange(max_pos)
            for bit in (0, 1):
                rules.append(
                    OracleRule(
                        guard=((p, bit),), input=y,
                        output=bit if rng.random() < 0.7 else 1 - bit,
                        use=p + 1, available_at=rng.randrange(0, 3),
                    )
                )
        else:
            p = rng.randrange(max_pos - 1)
            q = p + 1 + rng.randrange(max_pos - p - 1) if p + 1 < max_pos else p
            use = max(p, q) + 1
            if q == p:
                continue
            rules.append(OracleRule(guard=((p, 0), (q, 0)), input=y, output=0,
                                    use=use))
            rules.append(OracleRule(guard=((p, 1),), input=y, output=1, use=use))
            rules.append(OracleRule(guard=((p, 0), (q, 1)), input=y, output=1,
                                    use=use))
    return OracleProgram(rules)


class TestSigmaSearchExhaustive:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(42)
        checked = hits = 0
        for trial in range(200):
            s = rng.randrange(2, 11)
            n = rng.randrange(0, 4)
            prog = random_small_program(rng, max_pos=s, n_inputs=n + 1)
            universe = list(range(s + 2))
            a_mem = set(rng.sample(universe, rng.randrange(0, 3)))
            b_mem = set(x for x in rng.sample(universe, rng.randrange(0, 3))
                        if x not in a_mem)
            d_mem = set(rng.sample(range(n + 1), rng.randrange(0, 2)))
            got, _ = sigma_search(prog, n, s, a_mem, b_mem, d_mem)
            # brute force: all 2^s strings in lexicographic order
            want = None
            for v in range(1 << s):
                bits = format(v, f"0{s}b") if s else ""
                if any(bits[x] != "1" for x in a_mem if x < s):
                    continue
                if any(bits[x] != "0" for x in b_mem if x < s):
                    continue
                ok = True
                for y in range(n + 1):
                    res = evaluate(prog, *oracle(bits), y, s)
                    if res is None or res[0] != (1 if y in d_mem else 0):
                        ok = False
                        break
                if ok:
                    want = bits
                    break
            checked += 1
            hits += want is not None
            assert got == want, f"trial {trial}: got {got}, want {want}"
        assert hits > 20  # the comparison is not vacuous


class TestWitnessSearchExhaustive:
    def test_matches_brute_force_pairs(self):
        rng = random.Random(7)
        compared = found = 0
        for trial in range(120):
            n_rules = rng.randrange(1, 3)
            epochs = []
            length = rng.randrange(2, 5)
            w_mem = set(rng.sample(range(length), rng.randrange(0, length)))
            for j in range(n_rules):
                if j == 0 and rng.random() < 0.7:
                    # match the live oracle so witnesses actually appear
                    prefix = "".join(
                        "1" if i in w_mem else "0" for i in range(length)
                    )
                else:
                    prefix = "".join(rng.choice("01") for _ in range(length))
                zeros = set(rng.sample(range(1, 30), rng.randrange(1, 5)))
                epochs.append((prefix, zeros, rng.randrange(0, 4)))
            # distinct prefixes keep the program deterministic
            if len({p for p, _, _ in epochs}) != len(epochs):
                continue
            rules = []
            for prefix, zeros, avail in epochs:
                guard = tuple((p, int(prefix[p])) for p in range(len(prefix)))
                for y in range(30):
                    rules.append(
                        OracleRule(guard=guard, input=y,
                                   output=0 if y in zeros else 1,
                                   use=len(prefix), available_at=avail)
                    )
            prog = OracleProgram(rules)
            b_mem = set(rng.sample(range(30), rng.randrange(0, 4)))
            s = rng.randrange(3, 28)
            e, m = rng.randrange(0, 2), rng.randrange(0, 2)

            run = TwoDegreesRun([], [], {e: []}, {e: prog}, 40)
            run._w_bits[e] = bits_of(w_mem)
            for x in b_mem:
                run.b.add(x, 1)
            got, capped = run._search(e, m, s)

            threshold = column_threshold(max(e, m))
            want = None
            if threshold < s:
                for gamma in range(0, length + 2):
                    bits = "".join(
                        "1" if i in w_mem else "0" for i in range(gamma)
                    )
                    for x in range(threshold + 1, s + 1):
                        if x in b_mem:
                            continue
                        if any(
                            evaluate(prog, *oracle(bits), y, s) is None
                            for y in range(x + 1)
                        ):
                            continue
                        res = evaluate(prog, *oracle(bits), x, s)
                        if res[0] == 0:
                            want = (gamma, x)
                            break
                    if want:
                        break
            compared += 1
            found += want is not None
            assert got == want, f"trial {trial}: got {got}, want {want}"
        assert found > 15


class TestRecoveryLeastStage:
    def test_returns_first_qualifying_stage(self):
        # the change-point scan must agree with checking every stage: the
        # recovery result carries a stage at which all conditions hold and
        # no earlier stage qualifies with a smaller or equal boundary
        rng = random.Random(3)
        import sys
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).parent))
        from test_upclosure import boundaries, build_settled

        examined = 0
        for seed in range(6):
            sc = build_settled(random.Random(700 + seed), 2)
            values = boundaries(sc, 6)
            if len(values) < 3:
                continue
            z = encode_separator(set(), values, sc["a"].final(), sc["b"].final())
            from naive_upclosure import _agreement_window
            from sepsim.upclosure import WttAgreementTable

            table = WttAgreementTable(
                sc["a"], sc["b"], sc["gamma"], sc["delta"], sc["f"], sc["horizon"]
            )
            got, stage = recover_m_next(z, values[:2], table)
            assert got == values[2]
            # brute force over every stage, scanning candidates directly
            a_entry = {e: t for e, t in sc["a"].events}
            b_entry = {e: t for e, t in sc["b"].events}

            def in_union(y, s):
                return (
                    a_entry.get(y, 10**9) <= s or b_entry.get(y, 10**9) <= s
                )

            first = None
            m_n = values[1]
            for s in range(sc["horizon"] + 1):
                blk = range(values[0] + 1, values[1] + 1)
                wa = _agreement_window(z, sc["a"].entry_stage, blk, True)
                wb = _agreement_window(z, sc["b"].entry_stage, blk, False)
                if not (wa[0] <= s <= wa[1] or wb[0] <= s <= wb[1]):
                    continue
                m1 = values[1]
                # first boundary's covering interval (skip the -1 base)
                if not all(
                    in_union(y, s)
                    for y in range(values[1] + 1, sc["f"](values[1]) + 1)
                ):
                    pass  # covering of earlier boundaries checked below
                prefix = table.agree_prefix(s)
                hole = False
                cand = None
                for x in range(m_n + 1, min(sc["f"].domain, z.length)):
                    if x >= prefix:
                        break
                    if not in_union(x, s):
                        hole = True
                    blk2 = range(m_n + 1, x + 1)
                    wa2 = _agreement_window(z, sc["a"].entry_stage, blk2, True)
                    wb2 = _agreement_window(z, sc["b"].entry_stage, blk2, False)
                    if not (wa2[0] <= s <= wa2[1] or wb2[0] <= s <= wb2[1]):
                        continue
                    if not hole:
                        continue
                    if not all(
                        in_union(y, s) for y in range(x + 1, sc["f"](x) + 1)
                    ):
                        continue
                    cand = x
                    break
                # earlier-boundary covering condition
                ok_cover = all(
                    in_union(y, s)
                    for i in range(1, 2)
                    for y in range(values[i] + 1, sc["f"](values[i]) + 1)
                )
                if cand is not None and ok_cover:
                    first = (cand, s)
                    break
            assert first is not None
            assert (got, stage) == first, f"seed {seed}"
            examined += 1
        assert examined >= 3
