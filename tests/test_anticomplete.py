"""Finite-injury construction: strategies, scheduler, verifier."""

import random

import pytest

from sepsim.anticomplete import (
    AnticompleteRun,
    NStrategyState,
    apply_sigma,
    n_strategy_step,
    run_anticomplete,
    sigma_search,
    verify_anticomplete,
)
from sepsim.functionals import OracleProgram, OracleRule


def always_zero_program(width):
    return OracleProgram(
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
    return OracleProgram(rules)


class TestNStrategy:
    def test_waits_past_k(self):
        run = AnticompleteRun({}, 10)
        st = NStrategyState(k=5)
        assert not n_strategy_step(st, 3, run)
        assert st.satisfied_at is None

    def test_acts_at_first_opportunity(self):
        run = AnticompleteRun({}, 10)
        st = NStrategyState(k=5)
        assert n_strategy_step(st, 6, run)
        assert st.satisfied_at == 6
        assert st.restraint == 7
        # acts exactly once between initializations
        assert not n_strategy_step(st, 7, run)

    def test_reacts_after_initialization(self):
        run = AnticompleteRun({}, 20)
        st = NStrategyState(k=5, satisfied_at=10, restraint=11)
        st.satisfied_at = None  # initialized at stage 10
        st.restraint = 0
        assert n_strategy_step(st, 11, run)
        assert st.restraint == 12


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
        assert sigma_search(OracleProgram(), 0, 4, set(), set(), set()) is None

    def test_always_zero_gives_characteristic_of_a(self):
        prog = always_zero_program(10)
        sigma = sigma_search(prog, 4, 6, {1, 3}, {2}, set())
        assert sigma == "010100"

    def test_mismatch_with_d_blocks(self):
        prog = always_zero_program(10)
        assert sigma_search(prog, 4, 6, set(), set(), {2}) is None

    def test_bit_reader_forces_positions(self):
        prog = bit_reader_program(lambda y: y + 2, 8)
        # want output 1 at y=1 (in D), 0 elsewhere up to n=3
        sigma = sigma_search(prog, 3, 8, set(), set(), {1})
        assert sigma == "00010000"

    def test_forced_conflict_fails(self):
        prog = bit_reader_program(lambda y: y + 2, 8)
        # y=1 wants bit at position 3 to be 1, but 3 is in B (forced 0)
        assert sigma_search(prog, 3, 8, set(), {3}, {1}) is None

    def test_availability_delays(self):
        prog = bit_reader_program(lambda y: y + 2, 8, available_at=5)
        assert sigma_search(prog, 3, 4, set(), set(), set()) is None
        assert sigma_search(prog, 3, 8, set(), set(), set()) is not None

    def test_lexicographic_least_with_choice(self):
        # y=0 satisfiable by position 1 being 0 or position 0 being 1:
        # least sigma picks 00... over 10...
        prog = OracleProgram(
            [
                OracleRule(guard=((1, 0),), input=0, output=0, use=2),
                OracleRule(guard=((0, 1),), input=0, output=0, use=2),
            ]
        )
        assert sigma_search(prog, 0, 4, set(), set(), set()) == "0000"


def satisfied_ks(run):
    return {st.k for st in run.nstates if st.satisfied_at is not None}


class TestRuns:
    def test_stage_zero_runs_nothing(self):
        run = AnticompleteRun({}, 5)
        run.run_stage()
        assert run.records == [] and run.stage == 1

    def test_empty_adversary_horizon_100(self):
        run = run_anticomplete({}, 100)
        assert set(run.d.entry) == set()
        assert set(run.a.entry) == set() and set(run.b.entry) == set()
        # n-strategy k first runs at stage 2k+1 and acts there; stages go
        # up to 99, so exactly k <= 49 are satisfied.
        assert satisfied_ks(run) == set(range(50))

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
        ref = AnticompleteRun(programs, horizon)
        while ref.stage < horizon:
            ref.run_stage()
        assert fast.records == ref.records
        assert fast.a.entry == ref.a.entry
        assert fast.b.entry == ref.b.entry
        assert fast.d.entry == ref.d.entry


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
