"""Spectrum construction: axioms, blocking, column coding, censuses."""

import hashlib
import random
import time
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepsim.twodegrees as twodegrees
from naive_twodegrees import NaiveTwoDegreesRun
from sepsim.corpus import twodegrees_corpus, twodegrees_scenario
from sepsim.enumcore import pair
from sepsim.errors import HardFault
from sepsim.functionals import OracleProgram, OracleRule
from sepsim.scenario import load_scenario
from sepsim.trace import parse_trace, run_scenario
from sepsim.twodegrees import (
    TwoDegreesRun,
    VeAxiom,
    column_threshold,
    column_witnesses,
    cube_census,
    decode_b_from_c,
    decode_c_from_b,
    run_twodegrees,
    twodegrees_inputs,
    verify_twodegrees,
)
from sepsim.verify import verify_trace


def block_census(run: TwoDegreesRun, n: int, s: int) -> int:
    """How many of the first n^2 + 1 column slots are in A or blocked at s."""
    count = 0
    for i in range(n * n + 1):
        code = pair(n, i)
        if run.a.member_at(code, s):
            count += 1
            continue
        if any(ax.x == code and ax.alive_at(s) for ax in run.axioms):
            count += 1
    return count


def prefix_program(epochs, width):
    """One rule set per oracle-prefix epoch: guards pin the full prefix, so
    distinct epochs are incompatible and the program stays deterministic."""
    rules = []
    for prefix, zeros, avail in epochs:
        guard = tuple((p, int(prefix[p])) for p in range(len(prefix)))
        for y in range(width):
            rules.append(
                OracleRule(
                    guard=guard,
                    input=y,
                    output=0 if y in zeros else 1,
                    use=len(prefix),
                    available_at=avail,
                )
            )
    return OracleProgram(rules)


def w_epoch_program(w_events, length, zeros_per_epoch, width, avail=0):
    """Epochs follow the scripted W evolution; epoch prefixes are the
    successive snapshots, all of one length."""
    stages = sorted({0} | {t for _, t in w_events})
    epochs = []
    members = set()
    events_by_stage = {}
    for x, t in w_events:
        events_by_stage.setdefault(t, []).append(x)
    for i, t in enumerate(stages):
        members |= set(events_by_stage.get(t, []))
        prefix = "".join("1" if p in members else "0" for p in range(length))
        zeros = zeros_per_epoch[min(i, len(zeros_per_epoch) - 1)]
        epochs.append((prefix, zeros, avail))
    return prefix_program(epochs, width)


class TestThresholds:
    def test_thresholds(self):
        assert column_threshold(0) == 0
        assert column_threshold(1) == 3
        assert column_threshold(2) == 15  # pair(2, 4) lands on 15
        assert column_threshold(3) == 42  # pair(3, 9) lands on 42

    def test_threshold_is_the_box_maximum(self):
        for m_cap in range(16):
            box = (pair(n, i) for n in range(m_cap + 1) for i in range(n * n + 1))
            assert column_threshold(m_cap) == max(box), m_cap


class TestRStrategy:
    def test_empty_program_no_axioms(self):
        run = run_twodegrees([], [], {0: []}, {0: OracleProgram()}, 50)
        assert run.axioms == []

    def test_three_phase_script(self):
        # axiom created once the witness fits under the stage, W frozen,
        # then the number enters K and the witness is promoted
        prog = prefix_program([("0000", {9}, 0)], 30)
        run = run_twodegrees([], [(0, 15)], {0: []}, {0: prog}, 40)
        axioms = [r for r in run.records if r[0] == "axiom"]
        assert axioms[0][:6] == ("axiom", 9, 0, 0, 9, 4)
        promotes = [r for r in run.records if r[0] == "promote"]
        assert promotes == [("promote", 15, 0, 0, 9)]
        assert run.a.entry_stage(9) == 16
        checks, _ = verify_twodegrees(run)
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]

    def test_w_change_invalidates_and_researches(self):
        w_events = [(2, 12)]
        prog = prefix_program(
            [("0000", {9}, 0), ("0010", {11}, 0)], 30
        )
        run = run_twodegrees([], [], {0: w_events}, {0: prog}, 40)
        kills = [r for r in run.records if r[0] == "kill"]
        assert kills and kills[0][:4] == ("kill", 12, 0, 0)
        # the fresh epoch yields a new axiom the same stage the old one dies
        recreated = [
            r for r in run.records if r[0] == "axiom" and r[1] == 12 and r[4] == 11
        ]
        assert recreated
        assert set(run.a.entry) == set()  # nothing promoted without K
        checks, _ = verify_twodegrees(run)
        assert all(c.passed for c in checks)

    def test_firing_invalidates_recorded_zeros(self):
        # phi0 answers 0 only on input 8; at stage 7 the scan records that
        # zero, then column 2 fires pair(2, 0) = 8 into B, so the stage-8
        # search must not hand out the stale witness
        prog = prefix_program([("", {8}, 0)], 30)
        run = run_twodegrees([(2, 7)], [], {}, {0: prog}, 20)
        assert run.records == [("pfire", 7, 2, 0, 8)]

    def test_huge_program_index_walks_no_pairs(self):
        # pair(n, i) >= n^3: an index whose cube passes every stage never
        # searches, so its rule changes nothing, and the column threshold
        # it would have walked for about e^4 / 2 pairs is never computed
        path = Path(__file__).resolve().parents[1] / "scenarios" / "samples"
        text = (path / "twodegrees-mixed.scn").read_text()
        huge = text.replace("end\n", "rule phi1000000000000 0 0 1 0 0\nend\n")
        start = time.perf_counter()
        trace = run_scenario(load_scenario(huge)).render()
        report = verify_trace(parse_trace(trace))
        elapsed = time.perf_counter() - start
        assert elapsed < 1, elapsed
        assert report.passed, report.render()
        plain = run_scenario(load_scenario(text)).render()
        body = trace.split("scenario-end\n")[1]
        assert body == plain.split("scenario-end\n")[1]

    def test_promotion_witness_in_b_is_a_hard_fault(self):
        prog = prefix_program([("0000", {9}, 0)], 30)
        run = run_twodegrees([], [], {0: []}, {0: prog}, 12).run()
        run.b.add(9, 10)  # simulate a corrupted scenario
        run.k.add(0, 12)
        run.horizon = 14
        run._k_now.add(0)
        with pytest.raises(HardFault, match="already enumerated into B"):
            run.r_strategy_step(0, 12, run.k.by_stage.get(12, ()))


class TestPStrategy:
    def test_never_fires_without_c(self):
        run = run_twodegrees([], [], {}, {}, 50)
        assert [r for r in run.records if r[0] == "pfire"] == []
        assert set(run.b.entry) == set()

    def test_fires_least_slot(self):
        run = run_twodegrees([(2, 7)], [], {}, {}, 50)
        fires = [r for r in run.records if r[0] == "pfire"]
        assert fires == [("pfire", 7, 2, 0, pair(2, 0))]
        assert run.b.entry_stage(pair(2, 0)) == 8

    def test_skips_blocked_slot(self):
        # an axiom with witness pair(3, 0) = 27 blocks slot 0 of column 3
        prog = prefix_program([("0000", {27}, 0)], 40)
        run = run_twodegrees([(3, 30)], [], {0: []}, {0: prog}, 45)
        fires = [r for r in run.records if r[0] == "pfire"]
        assert fires == [("pfire", 30, 3, 1, pair(3, 1))]
        checks, _ = verify_twodegrees(run)
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]

    def test_skips_blocked_and_a_slots(self):
        # slots 0 and 1 of column 3 go into A via promotions; slot 2 fires
        prog0 = prefix_program([("0000", {27}, 0)], 40)
        prog1 = prefix_program([("0000", {28}, 0)], 40)
        run = run_twodegrees(
            [(3, 40)],
            [(2, 35)],
            {0: [], 1: []},
            {0: prog0, 1: prog1},
            50,
        )
        assert run.a.entry_stage(27) == 36
        assert run.a.entry_stage(28) == 36
        fires = [r for r in run.records if r[0] == "pfire"]
        assert fires == [("pfire", 40, 3, 2, pair(3, 2))]
        checks, _ = verify_twodegrees(run)
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]

    def test_column_exhaustion_is_a_hard_fault(self):
        run = run_twodegrees([], [], {}, {}, 20).run()
        run.axioms.append(
            VeAxiom(e=0, m=0, x=pair(0, 0), gamma=1, prefix="0", created_at=1)
        )
        run.live[(0, 0)] = run.axioms[-1]
        with pytest.raises(HardFault, match="no free column slot"):
            run.p_strategy_step(0, 10)


class TestCensus:
    def test_empty_run_zero(self):
        run = run_twodegrees([], [], {}, {}, 30)
        for n in range(8):
            for s in (0, 10, 30):
                assert block_census(run, n, s) == 0
        assert cube_census(run, 5, 30) == (0, 0)

    def test_single_axiom_counts_one(self):
        prog = prefix_program([("0000", {27}, 0)], 40)
        run = run_twodegrees([], [], {0: []}, {0: prog}, 40)
        assert block_census(run, 3, 39) == 1

    def test_single_firing_counts_in_cube(self):
        run = run_twodegrees([(3, 7)], [], {}, {}, 30)
        assert cube_census(run, 4, 30) == (0, 1)


class TestDecoding:
    def test_c_empty_decodes_zero(self):
        run = run_twodegrees([], [], {}, {}, 30)
        for n in range(10):
            assert decode_c_from_b(set(run.b.entry), n) == 0

    def test_entry_decodes_one(self):
        run = run_twodegrees([(2, 7)], [], {}, {}, 30)
        assert decode_c_from_b(set(run.b.entry), 2) == 1
        assert decode_c_from_b(set(run.b.entry), 3) == 0

    def test_b_from_c_miss_cases(self):
        run = run_twodegrees([(2, 7)], [], {}, {}, 30)
        witnesses = column_witnesses({2}, run.b.events)
        # column outside C
        bit, settled = decode_b_from_c({2}, witnesses, pair(5, 1))
        assert (bit, settled) == (0, True)
        # inside C, wrong slot
        bit, settled = decode_b_from_c({2}, witnesses, pair(2, 1))
        assert (bit, settled) == (0, True)
        # inside C, right slot
        bit, settled = decode_b_from_c({2}, witnesses, pair(2, 0))
        assert (bit, settled) == (1, True)


def random_scenario(rng, horizon=300):
    n_funcs = rng.randrange(1, 3)
    w_events = {}
    programs = {}
    length = 6
    for e in range(n_funcs):
        events = []
        for x in rng.sample(range(length), rng.randrange(0, 3)):
            events.append((x, rng.randrange(2, horizon - 10)))
        w_events[e] = events
        n_epochs = len({t for _, t in events}) + 1
        zeros = []
        for _ in range(n_epochs):
            zs = set(rng.sample(range(10, 60), rng.randrange(1, 4)))
            zeros.append(zs)
        programs[e] = w_epoch_program(events, length, zeros, 70)
    k_events = [
        (m, rng.randrange(horizon // 2, horizon - 1))
        for m in rng.sample(range(3), rng.randrange(0, 3))
    ]
    c_events = [
        (n, rng.randrange(1, horizon - 1))
        for n in rng.sample(range(9), rng.randrange(1, 6))
    ]
    return c_events, k_events, w_events, programs


class TestVerifier:
    @pytest.mark.parametrize("seed", range(8))
    def test_adversarial_runs_clean(self, seed):
        rng = random.Random(seed)
        c, k, w, progs = random_scenario(rng)
        run = run_twodegrees(c, k, w, progs, 300)
        checks, _ = verify_twodegrees(run)
        bad = [c2.line() for c2 in checks if not c2.passed]
        assert not bad, bad

    def test_determinism(self):
        rng = random.Random(5)
        c, k, w, progs = random_scenario(rng)
        r1 = run_twodegrees(c, k, w, progs, 300)
        r2 = run_twodegrees(c, k, w, progs, 300)
        assert r1.records == r2.records

    def test_corrupt_axiom_prefix_flagged(self):
        prog = prefix_program([("0000", {9}, 0)], 30)
        run = run_twodegrees([], [(0, 15)], {0: []}, {0: prog}, 40)
        run.axioms[0].prefix = "0100"
        checks, _ = verify_twodegrees(run)
        by_name = {c.name: c for c in checks}
        assert not by_name["block-soundness"].passed

    def test_witness_already_in_b_flagged(self):
        run = TwoDegreesRun([(2, 7)], [], {}, {}, 20).replay(
            [("pfire", 7, 2, 0, 8), ("axiom", 8, 0, 0, 8, 0, "")]
        )
        checks, _ = verify_twodegrees(run)
        failed = {c.name: c.detail for c in checks if not c.passed}
        assert failed == {
            "block-soundness": "axiom for (0, 0) at stage 8: witness already in B"
        }


def random_search_program(rng, length, width, horizon):
    """A deterministic program on inputs below width that reads the first
    `length` W positions. Each input's guards are the leaves of one decision
    tree over a few positions, so no two are compatible and each leaf has its
    own use; some inputs and leaves have no rule, and some rules come late."""
    rules = []
    for y in range(width):
        if rng.random() < 0.05:
            continue
        positions = sorted(rng.sample(range(length), rng.randrange(3)))
        for bits in product((0, 1), repeat=len(positions)):
            if positions and rng.random() < 0.1:
                continue
            late = rng.random() < 0.15
            rules.append(
                OracleRule(
                    guard=tuple(zip(positions, bits)),
                    input=y,
                    output=0 if rng.random() < 0.3 else 1,
                    use=max(positions, default=-1) + 1 + rng.choice((0, 0, 1, 2)),
                    available_at=rng.randrange(horizon) if late else 0,
                )
            )
    return OracleProgram(rules)


def run_outcome(cls, *inputs):
    try:
        run = cls(*inputs).run()
    except HardFault as exc:
        return str(exc)
    return run.records, run.a.entry, run.b.entry


class TestEventSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        indices=st.sets(st.integers(0, 2), min_size=1, max_size=2),
        horizon=st.integers(10, 60),
    )
    def test_fast_equals_reference_on_random_programs(self, seed, indices, horizon):
        # searches resume within an epoch and quiet indices are skipped; the
        # reference searches every eligible number at every stage from input 0
        rng = random.Random(seed)
        length = 5
        programs, w_events = {}, {}
        for e in sorted(indices):
            width = rng.choice((horizon // 3, horizon, 2 * horizon))
            programs[e] = random_search_program(rng, length, width, horizon)
            w_events[e] = [
                (x, rng.randrange(horizon))
                for x in rng.sample(range(length), rng.randrange(4))
            ]
        k_events = [(m, rng.randrange(horizon)) for m in rng.sample(range(4), 2)]
        c_events = [(n, rng.randrange(horizon)) for n in rng.sample(range(6), 3)]
        inputs = (c_events, k_events, w_events, programs, horizon)
        assert run_outcome(TwoDegreesRun, *inputs) == run_outcome(
            NaiveTwoDegreesRun, *inputs
        )

    def test_corpus_evaluations_flat_in_the_horizon(self, monkeypatch):
        calls = 0
        evaluate = twodegrees.evaluate

        def counted(*args):
            nonlocal calls
            calls += 1
            return evaluate(*args)

        monkeypatch.setattr(twodegrees, "evaluate", counted)
        per_horizon = []
        for horizon in (1000, 4000):
            calls = 0
            for _, sc in twodegrees_corpus(4, horizon):
                run_twodegrees(*twodegrees_inputs(sc))
            per_horizon.append(calls)
        assert 0 < per_horizon[1] <= 1.1 * per_horizon[0], per_horizon

    def test_corpus_work_is_pinned(self, monkeypatch):
        # each index's memo is forgotten only at a W_e event, a rule
        # becoming available or a column firing
        calls = Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        search, evaluate = TwoDegreesRun._search, twodegrees.evaluate
        monkeypatch.setattr(TwoDegreesRun, "_search", counted("search", search))
        monkeypatch.setattr(twodegrees, "evaluate", counted("evaluate", evaluate))
        for _, sc in twodegrees_corpus(20, 1000):
            run_twodegrees(*twodegrees_inputs(sc))
        assert calls == Counter(search=4629, evaluate=14696)


# SHA-256 of run_scenario(load_scenario(twodegrees_scenario(seed, h)
# .canonical())).render(), at three and ten times the corpus horizon
LONG_HORIZON_DIGESTS = {
    (3000, 0): "168261ba2dabee9b1ae11dd830878a6e1e03f340f380fa1447345baa9ea27cc2",
    (3000, 1): "692ad9cb3dd8ee19a6908cf669d9ab3820b8238df59c1018f2754d2ee70fe8c4",
    (3000, 2): "976f4f6630e5dd8b07746909f757fa98f6a55488f40d64bd6b829f69960e3c23",
    (3000, 3): "f2f353ed70a348e2b561a9640d5ffe505b40112c3da18bb912ef37c33f4f4c24",
    (3000, 4): "8d363e8584e709185bc7ec89cdeef72f71b83a5ba672a7e82a13c32ac08d100e",
    (3000, 5): "7d627a465076579f944eed901129b26a3572f5208d9f28c999ad6b5771e4e0b4",
    (10000, 0): "1e519b3a3646ce79f28b344c3f3f66dd3320b777977033937e22dbf4f5eec344",
    (10000, 1): "a8112528fb5cd4d3d2f893d7517b319eb655a5f04eaf863cff5afe044415fc46",
    (10000, 2): "ab0b41c02051129d20c8b354a6486951504b9825f8d7e97a4c315e2225317dee",
    (10000, 3): "ffe4ab43be6eb4bd727645d1fe22d4c57eb8357beb671b4b5e34840182d5edbe",
    (10000, 4): "cc80df72049e4584c14142b98f2f2913e33ca922b746a311af4440bd9785ba56",
    (10000, 5): "da1f2faba6761ef028e25c3e92221b892b355d2950ae5916960698e7f1febad2",
}


@pytest.mark.parametrize("horizon, seed", sorted(LONG_HORIZON_DIGESTS))
def test_trace_digest_at_long_horizon(horizon, seed):
    sc = load_scenario(twodegrees_scenario(seed, horizon).canonical())
    digest = hashlib.sha256(run_scenario(sc).render().encode()).hexdigest()
    assert digest == LONG_HORIZON_DIGESTS[horizon, seed]
