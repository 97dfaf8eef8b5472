"""Finite-injury construction: strategies, scheduler, verifier."""

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_anticomplete
import sepsim.anticomplete as anticomplete
from naive_anticomplete import NaiveAnticompleteRun, NStrategyState, n_strategy_step
from rule_rows import program_of
from sepsim.anticomplete import (
    apply_sigma,
    run_anticomplete,
    sigma_search,
    verify_anticomplete,
)
from sepsim.corpus import anticomplete_corpus, anticomplete_scenario
from sepsim.functionals import OracleProgram, OracleRule
from sepsim.trace import run_scenario


def always_zero_program(width):
    return program_of(
        [OracleRule(guard=(), input=y, output=0, use=0) for y in range(width)]
    )


def bit_reader_program(position_of, width, available_at=0):
    """Functional whose answer on y is the oracle bit at position_of(y)."""
    rules = []
    for y in range(width):
        p = position_of(y)
        rules.append(
            OracleRule(
                guard=((p, 0),), input=y, output=0, use=p + 1, available_at=available_at
            )
        )
        rules.append(
            OracleRule(
                guard=((p, 1),), input=y, output=1, use=p + 1, available_at=available_at
            )
        )
    return program_of(rules)


def least_sigma(*args):
    """sigma_search's sigma, without its wake."""
    return sigma_search(*args)[0]


class TestNStrategy:
    # the preservation strategy as the reference stepper runs it; the
    # event-driven scheduler steps it only when it acts
    def test_waits_past_k(self):
        run = NaiveAnticompleteRun({}, 10)
        st = NStrategyState(k=5)
        assert not n_strategy_step(st, 3, run)
        assert st.satisfied_at is None and run.records == []

    def test_acts_at_first_opportunity(self):
        run = NaiveAnticompleteRun({}, 10)
        st = NStrategyState(k=5)
        assert n_strategy_step(st, 6, run)
        assert st.satisfied_at == 6
        assert run.records == [("nact", 6, 5, 7)]
        # acts exactly once between initializations
        assert not n_strategy_step(st, 7, run)

    def test_reacts_after_initialization(self):
        run = NaiveAnticompleteRun({}, 20)
        st = NStrategyState(k=5)
        assert n_strategy_step(st, 6, run)
        st.satisfied_at = None  # initialized at stage 10
        assert n_strategy_step(st, 11, run)
        assert run.records == [("nact", 6, 5, 7), ("nact", 11, 5, 12)]


class TestApplySigma:
    def test_no_qualifying_m(self):
        # sigma is 1 only on current A members
        m, a, b = apply_sigma("101", 0, {0, 2}, set())
        assert m is None and a == () and b == ()

    def test_copy_tail_from_m(self):
        # A = {0}: least 1-position outside A at or past r=0 is 2
        m, a, b = apply_sigma("101", 0, {0}, set())
        assert (m, a, b) == (2, (2,), ())

    def test_copy_with_b_side(self):
        m, a, b = apply_sigma("101", 0, set(), set())
        assert (m, a, b) == (0, (0, 2), (1,))

    def test_respects_restraint(self):
        m, a, b = apply_sigma("1101", 2, set(), set())
        assert (m, a, b) == (3, (3,), ())


class TestSigmaSearch:
    def test_no_rules_no_sigma(self):
        assert least_sigma(OracleProgram(), 0, 4, set(), set(), set()) is None

    def test_always_zero_gives_characteristic_of_a(self):
        prog = always_zero_program(10)
        sigma = least_sigma(prog, 4, 6, {1, 3}, {2}, set())
        assert sigma == "010100"

    def test_mismatch_with_d_blocks(self):
        prog = always_zero_program(10)
        assert least_sigma(prog, 4, 6, set(), set(), {2}) is None

    def test_bit_reader_forces_positions(self):
        prog = bit_reader_program(lambda y: y + 2, 8)
        # want output 1 at y=1 (in D), 0 elsewhere up to n=3
        sigma = least_sigma(prog, 3, 8, set(), set(), {1})
        assert sigma == "00010000"

    def test_forced_conflict_fails(self):
        prog = bit_reader_program(lambda y: y + 2, 8)
        # y=1 wants bit at position 3 to be 1, but 3 is in B (forced 0)
        assert least_sigma(prog, 3, 8, set(), {3}, {1}) is None

    def test_availability_delays(self):
        prog = bit_reader_program(lambda y: y + 2, 8, available_at=5)
        assert least_sigma(prog, 3, 4, set(), set(), set()) is None
        assert least_sigma(prog, 3, 8, set(), set(), set()) is not None

    def test_lexicographic_least_with_choice(self):
        # y=0 satisfiable by position 1 being 0 or position 0 being 1:
        # least sigma picks 00... over 10...
        prog = program_of(
            [
                OracleRule(guard=((1, 0),), input=0, output=0, use=2),
                OracleRule(guard=((0, 1),), input=0, output=0, use=2),
            ]
        )
        assert least_sigma(prog, 0, 4, set(), set(), set()) == "0000"

    def test_wake_is_the_missing_input_rules_readiness(self):
        # every rule comes at stage 5; y=0's rules need an oracle of length 3
        prog = bit_reader_program(lambda y: y + 2, 8, available_at=5)
        assert sigma_search(prog, 3, 4, set(), set(), set()) == (None, 5)
        # y=3's rules need length 6, but y=0 is the input the search lacks
        prog = bit_reader_program(lambda y: y + 2, 8)
        assert sigma_search(prog, 3, 2, set(), set(), set()) == (None, 3)

    def test_rules_that_cannot_help_set_no_wake(self):
        prog = always_zero_program(10)
        # D wants 1 at y=2, and no rule outputs 1
        assert sigma_search(prog, 4, 6, set(), set(), {2}) == (None, None)
        # y=1 wants bit 3 = 1, which B forces to 0
        prog = bit_reader_program(lambda y: y + 2, 8)
        assert sigma_search(prog, 3, 8, set(), {3}, {1}) == (None, None)
        # n past the program's contiguous cover
        assert sigma_search(prog, 8, 20, set(), set(), set()) == (None, None)

    def test_propagation_failure_wakes_at_the_next_usable_rule(self):
        # y=0 and y=1 pin bit 0 to different values; y=1 gains a rule at 7
        prog = program_of(
            [
                OracleRule(guard=((0, 0),), input=0, output=0, use=1),
                OracleRule(guard=((0, 1),), input=1, output=0, use=1),
                OracleRule(guard=((0, 0), (2, 1)), input=1, output=0, use=4,
                           available_at=7),
            ]
        )
        assert sigma_search(prog, 1, 4, set(), set(), set()) == (None, 7)
        assert least_sigma(prog, 1, 7, set(), set(), set()) == "0010000"

    def test_backtracking_failure_wakes_at_the_next_usable_rule(self):
        # y=0 wants bits 0 and 1 equal, y=1 wants them different until its
        # rule for 00 comes at stage 7; neither has a single candidate
        table = {0: [0, 1, 1, 0], 1: [0, 0, 0, 1]}
        prog = program_of(
            [
                OracleRule(
                    guard=((0, p), (1, q)), input=y, output=out, use=2,
                    available_at=7 if (y, p, q) == (1, 0, 0) else 0,
                )
                for y, outs in table.items()
                for (p, q), out in zip(product((0, 1), repeat=2), outs)
            ]
        )
        assert sigma_search(prog, 1, 4, set(), set(), set()) == (None, 7)
        assert least_sigma(prog, 1, 7, set(), set(), set()) == "0000000"


class TestRuns:
    def test_stage_zero_runs_nothing(self):
        run = NaiveAnticompleteRun({}, 5)
        run.run_stage()
        assert run.records == [] and run.stage == 1

    def test_empty_adversary_horizon_100(self):
        run = run_anticomplete({}, 100)
        assert set(run.d.entry) == set()
        assert set(run.a.entry) == set() and set(run.b.entry) == set()
        # n-strategy k first runs at stage 2k+1 and acts there; stages go
        # up to 99, so exactly k <= 49 act, each once.
        assert [r[2] for r in run.records if r[0] == "nact"] == list(range(50))

    def test_always_zero_adversary_acts_once(self):
        run = run_anticomplete({0: always_zero_program(80)}, 100)
        racts = [r for r in run.records if r[0] == "ract"]
        assert len(racts) == 1
        assert set(run.d.entry) == {racts[0][3]}
        assert set(run.a.entry) == set() == set(run.b.entry)

    def test_bit_reader_enumerates_and_respects_restraints(self):
        prog = bit_reader_program(lambda y: 2 * y + 4, 120)
        run = run_anticomplete({0: prog}, 120)
        racts = [r for r in run.records if r[0] == "ract"]
        assert len(racts) >= 2  # acts repeatedly before stalling
        enumerating = [r for r in racts if r[6] or r[7]]
        assert enumerating, "bit-reader adversary should force enumerations"
        checks, _ = verify_anticomplete(
            run.records,
            tuple(run.a.events),
            tuple(run.b.events),
            tuple(run.d.events),
            120,
        )
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]

    def test_determinism(self):
        prog = bit_reader_program(lambda y: 3 * y + 5, 90)
        r1 = run_anticomplete({0: prog, 2: always_zero_program(60)}, 90)
        r2 = run_anticomplete({0: prog, 2: always_zero_program(60)}, 90)
        assert r1.records == r2.records

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fast_equals_reference(self, seed):
        rng = random.Random(seed)
        programs = {}
        for e in rng.sample(range(4), rng.randrange(1, 3)):
            kind = rng.random()
            if kind < 0.4:
                programs[e] = always_zero_program(rng.randrange(40, 90))
            else:
                step = rng.randrange(2, 4)
                off = rng.randrange(3, 9)
                avail = rng.choice([0, 0, 7, 15])
                programs[e] = bit_reader_program(
                    lambda y, a=step, b=off: a * y + b, 90, available_at=avail
                )
        horizon = rng.randrange(60, 90)
        fast = run_anticomplete(programs, horizon)
        ref = NaiveAnticompleteRun(programs, horizon).run_to_horizon()
        assert fast.records == ref.records
        assert fast.a.entry == ref.a.entry
        assert fast.b.entry == ref.b.entry
        assert fast.d.entry == ref.d.entry


def random_wake_program(rng, width, horizon):
    """A deterministic program on inputs below width. Each input's guards are
    the leaves of one decision tree, so no two are compatible: a constant 0,
    a reader of one position (now and then inverted), or a random table on
    the program's one shared pair of positions, whose inputs clash with each
    other. Some rules come late, and some of those also need an oracle
    longer than the stage."""
    pair = rng.sample(range(horizon // 2), 2)
    rules = []
    for y in range(width):
        kind = rng.random()
        if kind < 0.1:
            positions, outputs, late = [], [0], 0.1
        elif kind < 0.7:
            positions = [rng.randrange(y // 2 + 3)]
            outputs = [0, 1] if rng.random() < 0.9 else [1, 0]
            late = 0.1
        else:
            positions, late = pair, 0.4
            outputs = [rng.randrange(2) for _ in range(4)]
        for bits, output in zip(product((0, 1), repeat=len(positions)), outputs):
            available_at = use_slack = 0
            if rng.random() < late:
                available_at = rng.randrange(horizon)
                use_slack = rng.choice([0, rng.randrange(horizon)])
            rules.append(
                OracleRule(
                    guard=tuple(zip(positions, bits)),
                    input=y,
                    output=output,
                    use=max(positions, default=-1) + 1 + use_slack,
                    available_at=available_at,
                )
            )
    return program_of(rules)


class TestExactWakes:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        indices=st.sets(st.integers(0, 3), min_size=1, max_size=3),
        horizon=st.integers(20, 70),
    )
    def test_fast_equals_reference_on_random_programs(self, seed, indices, horizon):
        # a failed search is retried only at its wake, the reference stepper
        # searches at every stage
        rng = random.Random(seed)
        programs = {
            e: random_wake_program(rng, 2 * horizon, horizon) for e in sorted(indices)
        }
        fast = run_anticomplete(programs, horizon)
        ref = NaiveAnticompleteRun(programs, horizon).run_to_horizon()
        assert fast.records == ref.records
        assert fast.a.entry == ref.a.entry
        assert fast.b.entry == ref.b.entry
        assert fast.d.entry == ref.d.entry

    def test_corpus_run_searches_rarely(self, monkeypatch):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return sigma_search(*args)

        monkeypatch.setattr(anticomplete, "sigma_search", counted)
        for _, sc in anticomplete_corpus(20, 1000):
            run_anticomplete(sc.programs_by_index(), sc.horizon)
        assert calls == 682

    def test_corpus_run_steps_only_due_strategies(self, monkeypatch):
        # a strategy is stepped when it is new, due by its wake, or after an
        # act; a stale wake costs no step, and a preservation strategy is
        # stepped only to act
        steps = 0
        step = anticomplete.r_strategy_step

        def counted(*args):
            nonlocal steps
            steps += 1
            return step(*args)

        monkeypatch.setattr(anticomplete, "r_strategy_step", counted)
        nacts = 0
        for _, sc in anticomplete_corpus(20, 1000):
            run = run_anticomplete(sc.programs_by_index(), sc.horizon)
            nacts += sum(1 for r in run.records if r[0] == "nact")
        assert (steps, nacts) == (11134, 10541)


# SHA-256 of run_scenario(anticomplete_scenario(seed, 3000)).render(), at
# three times the horizon of the benchmark's anticomplete corpus
LONG_HORIZON_DIGESTS = {
    0: "7c3e70c63a1d52662ed500e3e1288a66defb7fe72da2e3446889ce0329a68d68",
    1: "b237d29449a0f5898e72da05ec4ae97c62b4a8a7b6d1f44fc0d5ad02a446a605",
    2: "d5875eb742480f467f43729d3d6a8a2c0db4cc0261f5a9a189c944b402ea9a4c",
    3: "ecb617570f73377485e1a9410cd5b3dee28c78b816c7dd606bd044e949fcd810",
    4: "e38bae0ec3e7008f1d9fb6752c9c3d8ba1c6eb2861927fc05a0deb32c0703e9b",
    5: "f0d8454329a68ef69ad3d00ecfdcebc474417ca50e7dbb6a48cbebf5dee6a243",
}


@pytest.mark.parametrize("seed", sorted(LONG_HORIZON_DIGESTS))
def test_trace_digest_at_horizon_3000(seed):
    text = run_scenario(anticomplete_scenario(seed, 3000)).render()
    assert hashlib.sha256(text.encode()).hexdigest() == LONG_HORIZON_DIGESTS[seed]


class TestMaskSearch:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_equals_the_dict_search(self, seed):
        # A, B and D are drawn as a run would hold them at stage s: A and B
        # below s, D sparse; n is mostly small, so that some searches find
        # a sigma, some of them by backtracking
        rng = random.Random(seed)
        horizon = rng.randrange(20, 71)
        prog = random_wake_program(rng, 2 * horizon, horizon)
        s = rng.randrange(horizon // 2, horizon + 1)
        reach = rng.choice([4, 8, 16, 2 * horizon])
        n = rng.randrange(min(prog.contiguous_cover + 1, reach))
        members = rng.sample(range(s), rng.randrange(s // 3))
        cut = rng.randrange(len(members) + 1)
        a, b = set(members[:cut]), set(members[cut:])
        d = {y for y in range(n + 1) if rng.random() < 0.1}
        assert sigma_search(prog, n, s, a, b, d) == naive_anticomplete.sigma_search(
            prog, n, s, a, b, d
        )


class TestVerifier:
    def run_and_events(self, programs, horizon):
        run = run_anticomplete(programs, horizon)
        return run, (
            tuple(run.a.events),
            tuple(run.b.events),
            tuple(run.d.events),
        )

    def test_clean_traces_pass(self):
        for programs in [{}, {0: always_zero_program(70)}]:
            run, (a, b, d) = self.run_and_events(programs, 60)
            checks, _ = verify_anticomplete(run.records, a, b, d, 60)
            assert all(c.passed for c in checks)

    def test_corrupted_b_entry_flags_companion(self):
        prog = bit_reader_program(lambda y: 2 * y + 4, 80)
        run, (a, b, d) = self.run_and_events({0: prog}, 80)
        bad = []
        done = False
        for rec in run.records:
            if rec[0] == "ract" and rec[6] and not done:
                # strip the A-side companions, keep the B entries
                bad.append(rec[:6] + ((), rec[7]))
                done = True
            else:
                bad.append(rec)
        assert done
        # rebuild final logs to match the corrupted records
        a2 = tuple(
            (x, s + 1) for r in bad if r[0] == "ract" for s, x in [(r[1], None)] for x in r[6]
        )
        b2 = tuple((x, r[1] + 1) for r in bad if r[0] == "ract" for x in r[7])
        d2 = tuple((r[3], r[1] + 1) for r in bad if r[0] == "ract")
        checks, _ = verify_anticomplete(bad, a2, b2, d2, 80)
        by_name = {c.name: c for c in checks}
        assert not by_name["wtt-companion"].passed

    def test_500_stage_run_clean_with_stable_d_counts(self):
        prog = bit_reader_program(lambda y: 2 * y + 4, 300)
        run, (a, b, d) = self.run_and_events({0: prog}, 500)
        checks, caveats = verify_anticomplete(run.records, a, b, d, 500)
        assert all(c.passed for c in checks)
        # adversary exhausted: no D entries in the final 100 stages
        for line in caveats:
            assert "(0 in the final 100 stages)" in line or "final 100" not in line
