"""Boundary sequences, permissions, X updates, speedups, verification."""

import random
import time
from bisect import bisect_right
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepsim.nosupermax
from reference_nosupermax import FullStepRun
from sepsim.corpus import chain_certificates, nosupermax_scenario
from sepsim.nosupermax import (
    MIN_SPEEDUP_FRACTION,
    AttemptRun,
    SpeedupCertificate,
    SpeedupResult,
    apply_speedup,
    boundary_update,
    derive_w,
    detect_outcome,
    run_attempt,
    run_nosupermax,
    trigger_prefix,
    verify_nosupermax,
    x_update,
)
from sepsim.scenario import load_scenario, load_scenario_file
from sepsim.trace import parse_trace, run_scenario
from sepsim.verify import verify_trace

SAMPLES = Path(__file__).resolve().parents[1] / "scenarios" / "samples"
CHAIN_SAMPLE = SAMPLES / "nosupermax-chain.scn"


def boundary_at(run: AttemptRun, t):
    """The boundary at the end of stage t: the base, then each entry's value."""
    out = [run.base]
    j = 0
    while True:
        v = run.entry_value_at(j, t)
        if v is None:
            return out
        out.append(v)
        j += 1


def naive_stage(base, old_entries, x_prev, a_next, b_next, s1):
    """Direct transliteration of the stage-(s+1) update rules, quantifying
    over full sets with no incremental shortcuts. Test oracle only."""
    s = s1 - 1

    def trigger_below(y):
        return any(
            (z in x_prev and z in b_next) or (z not in x_prev and z in a_next)
            for z in range(0, y)
        )

    def perm(y):
        if y in a_next or y in b_next:
            return False
        return y == s or trigger_below(y)

    new = []
    cur = base
    if cur < s:
        while True:
            idx = len(new)
            old = old_entries[idx] if idx < len(old_entries) else None
            if old is None or old <= cur:
                new.append(s)
                break
            want_in = idx % 2 == 1
            keep = False
            for y in range(cur + 1, old + 1):
                clean = y not in a_next and y not in b_next
                b1 = clean and (y in x_prev) == want_in
                b2 = clean and trigger_below(y)
                b3 = clean and y == s
                if b1 or b2 or b3:
                    keep = True
                    break
            if keep:
                new.append(old)
                cur = old
            else:
                new.append(s)
                break

    xn = set()
    dom = set(range(0, s + 1)) | set(a_next) | set(b_next) | set(x_prev)
    for y in dom:
        if y in a_next:
            xn.add(y)
            continue
        if y in b_next:
            continue
        j = None
        if y > base:
            for i, v in enumerate(new):
                if y <= v:
                    j = i
                    break
        if j is not None and perm(y):
            if j % 2 == 1:
                xn.add(y)
            continue
        if y in x_prev:
            xn.add(y)
    return new, xn


def naive_run(base, a_events, b_events, horizon):
    """Stage-by-stage recomputation from scratch; returns per-stage
    (entries, x) lists."""
    a_by, b_by = {}, {}
    for e, t in a_events:
        a_by.setdefault(max(1, t), set()).add(e)
    for e, t in b_events:
        b_by.setdefault(max(1, t), set()).add(e)
    a_now, b_now = set(), set()
    x = set()
    entries = []
    history = []
    for s1 in range(1, horizon + 1):
        a_now |= a_by.get(s1, set())
        b_now |= b_by.get(s1, set())
        entries, x = naive_stage(base, entries, x, a_now, b_now, s1)
        history.append((list(entries), set(x)))
    return history


def random_events(rng, horizon, n_elems, lo=0, hi=None):
    hi = hi if hi is not None else horizon
    elems = rng.sample(range(lo, hi), min(n_elems, hi - lo))
    a, b = [], []
    for e in elems:
        t = rng.randrange(1, horizon)
        (a if rng.random() < 0.5 else b).append((e, t))
    return a, b


def cofinite_scenario(horizon, holes_below=11):
    """Everything from holes_below up to horizon+10 enters the sets; element
    e arrives at stage e - holes_below + 1, well before stage e."""
    a, b = [], []
    for e in range(holes_below, horizon + 10):
        t = max(1, e - holes_below + 1)
        if t >= horizon:
            continue
        (a if e % 2 == 0 else b).append((e, t))
    return a, b


def boundary_inputs(base, entries, x, a_now, b_now):
    """boundary_update's bare-interval list and sorted scripted numbers,
    computed from scratch: interval j is bare when no number in it outside A
    and B sits on its side of X (inside X for odd j)."""
    bare, cur = [], base
    for j, v in enumerate(entries):
        free = [y for y in range(cur + 1, v + 1) if y not in a_now and y not in b_now]
        if not any((y in x) == (j % 2 == 1) for y in free):
            bare.append(j)
        cur = v
    return bare, sorted(a_now | b_now)


class TestBoundary:
    def test_first_stage(self):
        trig = trigger_prefix(0, set(), [], [])
        entries = []
        kept = boundary_update(
            -1, entries, 1, trig, *boundary_inputs(-1, [], set(), set(), set())
        )
        assert entries == [0] and kept == 0

    def test_empty_scripted_run_matches_naive(self):
        run = run_attempt(1, -1, [], [], 50)
        hist = naive_run(-1, [], [], 50)
        for t in range(1, 51):
            assert boundary_at(run, t) == [-1] + hist[t - 1][0], f"stage {t}"
            got_x = {y for y in range(0, t + 1) if run.x_member_at(y, t)}
            assert got_x == hist[t - 1][1], f"stage {t}"
        # everything stabilizes: entry j holds value j, in X iff odd
        assert boundary_at(run, 50) == list(range(-1, 50))
        assert {y for y in range(49) if y in run.x} == set(range(1, 49, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_adversarial_runs_match_naive(self, seed):
        rng = random.Random(seed)
        horizon = rng.randrange(30, 60)
        a, b = random_events(rng, horizon, rng.randrange(5, 25))
        run = run_attempt(1, -1, a, b, horizon)
        hist = naive_run(-1, a, b, horizon)
        for t in range(1, horizon + 1):
            assert boundary_at(run, t) == [-1] + hist[t - 1][0], f"stage {t}"
        final_x = hist[-1][1]
        domain = set(range(horizon + 1)) | {e for e, _ in a + b}
        got = {y for y in domain if run.x_member_at(y, horizon)}
        assert got == final_x

    def test_witness_kill_forces_reset(self):
        # stabilize for a while, then enumerate the only witness of an
        # interval into A: the entry resets to the stage
        a = [(3, 20)]
        run = run_attempt(1, -1, a, [], 30)
        # before stage 20: entry 3 = 3 witnessed by hole 3 (odd index -> in X)
        assert run.entry_value_at(3, 19) == 3
        assert run.x_member_at(3, 19)
        # at stage 20 the witness 3 enters A; entry 3 must reset to 19
        b20 = boundary_at(run, 20)
        assert b20[4] == 19  # index 3 entry (after base) reset

    def test_nonbase_attempt_degenerate_start(self):
        run = run_attempt(2, 10, [], [], 25)
        # below the base nothing is tracked until the stage passes it
        assert boundary_at(run, 5) == [10]
        assert boundary_at(run, 12)[0] == 10
        assert boundary_at(run, 12)[1:] == [11]


class TestPermitted:
    """x_update applies the permission rule at stage s1 = 7: a number outside
    both scripted sets may change side when it is the stage number 6 or lies
    above the least fresh crossing. Entries [0, 6] put 1..6 in an odd
    interval, where a permitted number outside X comes in."""

    def test_stage_escape(self):
        trig = trigger_prefix(6, set(), [], [])
        assert x_update([0, 6], -1, 7, set(), set(), set(), trig, [6]) == ([6], [])

    def test_excluded_by_membership(self):
        trig = trigger_prefix(6, set(), [], [])
        assert x_update([0, 6], -1, 7, set(), set(), {6}, trig, [6]) == ([], [])

    def test_crossing_trigger(self):
        # z = 2 freshly enters B while inside X
        trig = trigger_prefix(6, {2}, [], [2])
        assert x_update([0, 6], -1, 7, set(), set(), {2}, trig, [5]) == ([5], [])
        assert x_update([0, 6], -1, 7, set(), set(), {2}, trig, [1]) == ([], [])


def range_walk(base, s1, m, extra=()):
    """The positions of a range walk: `extra` (sorted) and every number from
    just above max(base, m) up to s = s1 - 1, or s alone when that range is
    empty. With A inside X and B outside it before the stage, and the
    stage's events in `extra`, no other number can change."""
    s = s1 - 1
    lo = min(max(base, m) + 1, s)
    low = [y for y in extra if y < lo]
    return low + list(range(lo, s + 1)) + [y for y in extra if y > s]


class TestXUpdate:
    def test_a_membership_wins_over_even_interval(self):
        # y in A and in an even (push-out) interval: stays in
        entries = [2, 5]  # intervals (-1,2] odd-right? index0 even, index1 odd
        trig = trigger_prefix(5, set(), [4], [])
        added, removed = x_update(
            entries, -1, 6, set(), {4}, set(), trig, range_walk(-1, 6, trig, [4])
        )
        assert 4 in added

    def test_only_handed_positions_at_or_below_the_crossing_move(self):
        # 1 sits in A outside X, which no finished stage leaves behind: as it
        # is neither handed over nor above the crossing at 2, it is not
        # visited. 4, above the crossing in the even interval (-1, 4], and
        # the stage number 5, in the odd interval (4, 5], are.
        entries = [4, 5]
        added, removed = x_update(
            entries, -1, 6, {4}, {1}, set(), 2, range_walk(-1, 6, 2)
        )
        assert (added, removed) == ([5], [4])
        added, _ = x_update(
            entries, -1, 6, {4}, {1}, set(), 2, range_walk(-1, 6, 2, [1])
        )
        assert added == [1, 5]

    def test_positionwise_oracle(self):
        rng = random.Random(99)
        for _ in range(30):
            s1 = rng.randrange(3, 30)
            base = -1
            x_prev = set(rng.sample(range(s1), rng.randrange(0, s1)))
            a_now = set(rng.sample(range(s1 + 3), rng.randrange(0, 5)))
            b_now = set(y for y in rng.sample(range(s1 + 3), rng.randrange(0, 5)))
            b_now -= a_now
            a_new = sorted(a_now)[:2]
            b_new = sorted(b_now)[:2]
            trig = trigger_prefix(s1 - 1, x_prev, a_new, b_new)
            entries = list(range(0, s1 - 1, 2))
            boundary_update(
                base, entries, s1, trig,
                *boundary_inputs(base, entries, x_prev, a_now, b_now),
            )
            added, removed = x_update(
                entries, base, s1, x_prev, a_now, b_now, trig,
                range_walk(base, s1, trig, sorted((a_now | b_now))),
            )
            got = (x_prev | set(added)) - set(removed)
            # oracle: naive positionwise application
            _, want = naive_stage(
                base,
                list(range(0, s1 - 1, 2)),
                x_prev,
                a_now,
                b_now,
                s1,
            )
            # naive recomputes boundary itself; feed it the same old entries
            assert got == want


class TestDeriveW:
    def test_empty_run_w_empty(self):
        run = run_attempt(1, -1, [], [], 40)
        w, fwd, bwd = derive_w(run)
        assert not w and not fwd and not bwd

    def test_crossing_enters_w_same_stage(self):
        # 3 stabilizes inside X, then enters B: crossing at that stage
        run = run_attempt(1, -1, [], [(3, 20)], 30)
        w, fwd, bwd = derive_w(run)
        assert (3, 20) in w.events
        assert not fwd and not bwd

    @pytest.mark.parametrize("seed", range(4))
    def test_triggers_hold_on_adversarial_runs(self, seed):
        rng = random.Random(100 + seed)
        a, b = random_events(rng, 300, 60)
        run = run_attempt(1, -1, a, b, 300)
        _, fwd, bwd = derive_w(run)
        assert not fwd and not bwd


class TestXChanges:
    @staticmethod
    def regrouped(records):
        out = {}
        for rec in records:
            if rec[0] != "boundary":
                out.setdefault(rec[1], []).append(rec)
        return out

    @pytest.mark.parametrize("seed", range(3))
    def test_index_regroups_the_records(self, seed):
        rng = random.Random(400 + seed)
        a, b = random_events(rng, 200, 60)
        run = run_attempt(1, -1, a, b, 200)
        rebuilt = AttemptRun.from_records(1, -1, a, b, 200, run.records)
        assert run.x_changes
        assert run.x_changes == self.regrouped(run.records)
        assert rebuilt.x_changes == self.regrouped(rebuilt.records)
        assert rebuilt.records == run.records


class TestDetect:
    def test_window_exceeds_horizon(self):
        run = run_attempt(1, -1, [], [], 20)
        with pytest.raises(ValueError, match="window exceeds horizon"):
            detect_outcome(run, 21)

    def test_quiet_run_all_stable(self):
        run = run_attempt(1, -1, [], [], 60)
        out = detect_outcome(run, 12)
        assert out.ell == 60 - 12 - 1
        # each stable interval holds a number outside A and B on its side
        union = run.union_final()
        bounds = [run.base] + out.stable_values
        for n, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            free = [y for y in range(lo + 1, hi + 1) if y not in union]
            assert any((y in run.x) == (n % 2 == 1) for y in free), (n, lo, hi)

    def test_cofinite_scenario_low_stable_prefix(self):
        a, b = cofinite_scenario(200)
        run = run_attempt(1, -1, a, b, 200)
        out = detect_outcome(run, 40)
        assert out.ell == 10  # holes 0..10 pin the first eleven entries
        assert out.k == 11 and out.parity == 1
        assert out.stable_values == list(range(11))
        assert run.entry_resets[out.k][-1] > 160  # k was reset late


class TestSpeedup:
    def make_failed_attempt(self, horizon=200):
        a, b = cofinite_scenario(horizon)
        run = run_attempt(1, -1, a, b, horizon)
        out = detect_outcome(run, 40)
        cert = SpeedupCertificate(
            attempt=1,
            ell=out.ell,
            k=out.k,
            parity=out.parity,
            settling_stage=50,
        )
        return run, out, cert

    def test_genuine_certificate_accepted(self):
        run, out, cert = self.make_failed_attempt()
        res = apply_speedup(run, cert)
        assert res.accepted, res.reason
        assert res.new_base == 10
        assert res.new_horizon >= 30
        # selected stages satisfy the bullets by construction; spot-check
        for s_new, t in enumerate(res.stage_map):
            vk = run.entry_value_at(cert.k, t)
            assert vk is not None and vk > s_new

    def test_wrong_ell_rejected(self):
        run, out, cert = self.make_failed_attempt()
        wrong = SpeedupCertificate(
            attempt=1, ell=out.ell - 1, k=out.k - 1, parity=(out.k - 1) % 2,
            settling_stage=50,
        )
        res = apply_speedup(run, wrong)
        assert not res.accepted
        assert res.witness_stage is not None

    def test_mismatched_parity_rejected(self):
        run, out, cert = self.make_failed_attempt()
        bad = SpeedupCertificate(
            attempt=1, ell=out.ell, k=out.k, parity=1 - out.parity,
            settling_stage=50,
        )
        res = apply_speedup(run, bad)
        assert not res.accepted and "parity" in res.reason

    def test_settling_too_early_rejected(self):
        run, out, cert = self.make_failed_attempt()
        early = SpeedupCertificate(
            attempt=1, ell=out.ell, k=out.k, parity=out.parity, settling_stage=2
        )
        res = apply_speedup(run, early)
        assert not res.accepted
        assert "prefix" in res.reason and res.witness_stage is not None

    def test_stable_run_certificate_stalls(self):
        run = run_attempt(1, -1, [], [], 120)
        cert = SpeedupCertificate(attempt=1, ell=3, k=4, parity=0, settling_stage=30)
        res = apply_speedup(run, cert)
        assert not res.accepted

    def test_no_such_attempt(self):
        with pytest.raises(ValueError, match="no such attempt"):
            run_attempt(4, -1, [], [], 10)


class TestPipeline:
    def test_quiet_scenario_cert_rejected_attempts_unreachable(self):
        cert = SpeedupCertificate(attempt=1, ell=5, k=6, parity=0, settling_stage=20)
        result = run_nosupermax([], [], 100, [cert])
        assert len(result.attempts) == 1
        assert not result.cert_results[0][1].accepted

    def test_three_attempt_chain(self):
        horizon = 200
        a, b = cofinite_scenario(horizon)
        out1 = detect_outcome(run_attempt(1, -1, a, b, horizon), 40)
        cert1 = SpeedupCertificate(1, out1.ell, out1.k, out1.parity, 50)
        partial = run_nosupermax(a, b, horizon, [cert1])
        assert len(partial.attempts) == 2
        out2 = partial.outcomes[1]
        # opposite failure flavour: the divergent entry has even parity
        assert out2.parity == 0
        cert2 = SpeedupCertificate(
            2, out2.ell, out2.k, out2.parity,
            min(partial.attempts[1].horizon, max(10, partial.attempts[1].horizon // 2)),
        )
        full = run_nosupermax(a, b, horizon, [cert1, cert2])
        if full.cert_results[1][1].accepted:
            assert len(full.attempts) == 3
        fresh = run_nosupermax(a, b, horizon, [cert1, cert2])
        checks, caveats = verify_nosupermax(full, fresh)
        bad = [c.line() for c in checks if not c.passed]
        assert not bad, bad

    @pytest.mark.parametrize("seed", range(4))
    def test_verifier_clean_on_adversarial_runs(self, seed):
        rng = random.Random(seed)
        a, b = random_events(rng, 300, 80)
        result = run_nosupermax(a, b, 300, [])
        checks, _ = verify_nosupermax(result, run_nosupermax(a, b, 300, []))
        bad = [c.line() for c in checks if not c.passed]
        assert not bad, bad

    def test_hole_permission_fires_on_injected_fixture(self):
        # Synthetic certified-attempt shell: the boundary records fabricate a
        # stable first entry at value 8 while the permanent hole 12 was never
        # placed on the odd side; the audit must flag it. A file fixture
        # cannot reach this verdict because any scenario whose certificate
        # validates has a hole-free zone by construction.
        from sepsim.nosupermax import AttemptRun, NosupermaxResult

        horizon = 40
        events = [
            (e, min(e, horizon - 2)) for e in range(4, 36) if e != 12
        ]
        a_events = [(e, t) for e, t in events if e % 2 == 0]
        b_events = [(e, t) for e, t in events if e % 2 == 1]
        records = []
        for s1 in range(1, horizon + 1):
            if s1 <= 4:
                records.append(("boundary", s1, -1))
            elif s1 <= 9:
                records.append(("boundary", s1, 0))
            else:
                records.append(("boundary", s1, 1))
        shell = AttemptRun.from_records(2, 3, a_events, b_events, horizon, records)
        result = NosupermaxResult(
            [shell], [detect_outcome(shell, horizon // 5)], []
        )
        fresh = NosupermaxResult(
            [run_attempt(2, 3, a_events, b_events, horizon)], [], []
        )
        checks, _ = verify_nosupermax(result, fresh)
        failed = {c.name for c in checks if not c.passed}
        assert "a2-hole-permission" in failed, failed

    def test_verifier_flags_corrupt_delta(self):
        a, b = cofinite_scenario(120)
        result = run_nosupermax(a, b, 120, [])
        run = result.attempts[0]
        # drop one xin record: exactness and possibly more must fire
        idx = next(i for i, r in enumerate(run.records) if r[0] == "xin")
        dropped = run.records[idx]
        run.records.pop(idx)
        run.x_toggles[dropped[2]].remove(dropped[1])
        run.x_changes[dropped[1]].remove(dropped)
        checks, _ = verify_nosupermax(result, run_nosupermax(a, b, 120, []))
        assert any(not c.passed for c in checks)
        failed = [c for c in checks if not c.passed]
        assert [c.name for c in failed] == ["a1-boundary-exactness"]
        assert failed[0].detail.startswith("record "), failed[0].detail


def reference_speedup(run: AttemptRun, cert: SpeedupCertificate) -> SpeedupResult:
    """apply_speedup as it read before the swept zone: the zone between the
    settled point and the new stage number is rescanned at every stage.
    Test oracle only."""
    horizon = run.horizon
    if cert.ell < -1 or cert.k != cert.ell + 1:
        return SpeedupResult(False, reason="certificate k must be ell + 1")
    if cert.parity != cert.k % 2:
        return SpeedupResult(False, reason="certificate parity does not match k")
    if not (1 <= cert.settling_stage <= horizon):
        return SpeedupResult(False, reason="settling stage outside trace")
    values = [run.entry_value_at(j, cert.settling_stage) for j in range(cert.k)]
    if any(v is None for v in values):
        return SpeedupResult(
            False,
            reason="settled prefix not defined at settling stage",
            witness_stage=cert.settling_stage,
        )
    for t in range(cert.settling_stage, horizon + 1):
        if run.kept_counts[t - 1] <= cert.ell:
            return SpeedupResult(
                False,
                reason=f"settled prefix moves (entry {run.kept_counts[t - 1]})",
                witness_stage=t,
            )
    x_ell = values[-1] if values else run.base
    odd = cert.parity == 1

    def zone_ok(t, s_new):
        for y in range(x_ell + 1, s_new + 1):
            in_x = run.x_member_at(y, t)
            if odd:
                if in_x and not run.a.member_at(y, t):
                    return False
            else:
                if not in_x and not run.b.member_at(y, t):
                    return False
        return True

    stage_map: list[int] = []
    for t in range(cert.settling_stage, horizon + 1):
        s_new = len(stage_map)
        vk = run.entry_value_at(cert.k, t)
        if vk is not None and vk > s_new and zone_ok(t, s_new):
            stage_map.append(t)
    if not stage_map:
        return SpeedupResult(
            False, reason="no qualifying stages", witness_stage=horizon
        )
    available = horizon - cert.settling_stage + 1
    if len(stage_map) < max(2, available // MIN_SPEEDUP_FRACTION):
        return SpeedupResult(
            False,
            reason=f"selection stalls at re-indexed stage {len(stage_map)}",
            witness_stage=stage_map[-1],
        )

    def reindex(entry: dict[int, int]):
        events = []
        for e, t0 in sorted(entry.items()):
            i = bisect_right(stage_map, t0 - 1)
            if i >= len(stage_map):
                continue
            events.append((e, max(1, i)))
        return events

    return SpeedupResult(
        True,
        stage_map=stage_map,
        new_base=x_ell,
        new_a_events=reindex(run.a.entry),
        new_b_events=reindex(run.b.entry),
        new_horizon=len(stage_map) - 1,
    )


@st.composite
def attempt_scripts(draw, max_horizon):
    """(base, a_events, b_events, horizon) for one attempt: sparse A and B
    events, some of them above the horizon in value or in stamp, a base that
    may sit above -1, and maybe a dense cofinite stretch that enumerates
    every number from some point on shortly before its own stage."""
    horizon = draw(st.integers(1, max_horizon))
    base = draw(st.integers(-1, horizon // 2))
    top = horizon + 6
    sparse = draw(
        st.lists(
            st.tuples(st.integers(0, top), st.booleans(), st.integers(1, horizon + 2)),
            unique_by=lambda event: event[0],
            max_size=12,
        )
    )
    a = [(e, t) for e, in_a, t in sparse if in_a]
    b = [(e, t) for e, in_a, t in sparse if not in_a]
    if draw(st.booleans()):
        start = draw(st.integers(0, horizon))
        lead = draw(st.integers(-8, 8))  # stage = number - lead
        used = {e for e, _, _ in sparse}
        for e in range(start, top + 1):
            if e not in used:
                (a if e % 2 == 0 else b).append((e, max(1, e - lead)))
    return base, a, b, horizon


# long quiet stretches, which the drawn horizons are too short for: a few
# sparse events, some landing on s or s - 1 right after a quiet run, and
# numbers that enter A or B before they become the stage number
QUIET_RUNS = [
    (-1, [(149, 150), (170, 100)], [(178, 180), (190, 120)], 200),
    (40, [(99, 100)], [(120, 122), (60, 150)], 200),
    (-1, [(151, 152), (150, 152)], [(152, 154)], 200),
    (7, [], [(197, 199)], 199),
]


# no events, so stage 7 is quiet with an empty boundary and base = s - 1
EMPTY_BOUNDARY_QUIET = (5, [], [], 10)


def with_quiet_runs(test):
    for script in QUIET_RUNS:
        test = example(script=script)(test)
    return test


def steps_like_reference(script):
    """Step AttemptRun and FullStepRun side by side and compare the records
    in order, the boundary and the interval counts after every stage.
    Returns the boundary length j at each quiet stage met: no events, no
    witness-free interval and base below s."""
    base, a, b, horizon = script
    run = AttemptRun(1, base, a, b, horizon)
    ref = FullStepRun(1, base, a, b, horizon)

    def state(att):
        counts = att.c_in, att.c_out, att.bare, att.misplaced
        return att.records, att.entries, *counts

    quiet = []
    for t in range(1, horizon + 1):
        events = run.a.by_stage.get(t) or run.b.by_stage.get(t)
        if not (events or run.bare) and base < t - 1:
            quiet.append(len(run.entries))
        run.step()
        ref.step()
        assert state(run) == state(ref), f"stage {t}"
    return quiet


class TestIncrementalAgainstNaive:
    """The incremental stage update and the swept speedup zone against
    from-scratch oracles."""

    @settings(max_examples=100, deadline=None)
    @given(attempt_scripts(max_horizon=24))
    @with_quiet_runs
    def test_run_matches_naive_stage_by_stage(self, script):
        base, a, b, horizon = script
        run = run_attempt(1, base, a, b, horizon)
        hist = naive_run(base, a, b, horizon)
        domain = set(range(horizon + 1)) | {e for e, _ in a + b}
        for t, (entries, x) in enumerate(hist, 1):
            assert boundary_at(run, t) == [base] + entries, f"stage {t}"
            assert {y for y in domain if run.x_member_at(y, t)} == x, f"stage {t}"

    @settings(max_examples=100, deadline=None)
    @given(attempt_scripts(max_horizon=40))
    @with_quiet_runs
    @example(script=(-1, [(10, 3)], [], 12))  # an A event above s + 1 outside X
    @example(script=(-1, [(12, 3), (9, 3)], [], 14))  # two, listed descending
    @example(script=(5, [(8, 2)], [(3, 4)], 12))  # base at or above s, stages 1-6
    @example(script=(-1, [(6, 2)], [(9, 3)], 12))  # s scripted before stage s + 1
    @example(script=EMPTY_BOUNDARY_QUIET)
    def test_steps_like_the_full_step_reference(self, script):
        # against the step that walks the boundary and hands x_update a
        # position list at every stage
        steps_like_reference(script)

    def test_reference_meets_both_kinds_of_quiet_stage(self):
        # stages 7-10 are quiet, the first with an empty boundary
        assert steps_like_reference(EMPTY_BOUNDARY_QUIET) == [0, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(attempt_scripts(max_horizon=40))
    @with_quiet_runs
    def test_interval_counts_match_a_recount(self, script):
        base, a, b, horizon = script
        run = AttemptRun(1, base, a, b, horizon)
        for t in range(1, horizon + 1):
            run.step()
            counts, cur = [], base
            for v in run.entries:
                free = [
                    y
                    for y in range(cur + 1, v + 1)
                    if y not in run.a_now and y not in run.b_now
                ]
                inside = sum(y in run.x for y in free)
                counts.append((inside, len(free) - inside))
                cur = v
            assert list(zip(run.c_in, run.c_out)) == counts, f"stage {t}"
            want = boundary_inputs(base, run.entries, run.x, run.a_now, run.b_now)
            assert (run.bare, run.scripted) == want, f"stage {t}"
            wrong_side = [
                j for j, (inside, outside) in enumerate(counts)
                if (outside if j % 2 == 1 else inside)
            ]
            assert run.misplaced == wrong_side, f"stage {t}"

    @pytest.mark.parametrize("seed", range(4))
    def test_x_positions_change_what_the_range_walk_changes(self, seed, monkeypatch):
        # every full stage's X moves against x_update on every number above
        # max(base, m) and every scripted one; a crossing stage's own
        # position list must change the same. The stages each path checked
        # are pinned, so that neither count falls to 0 unnoticed; a stage
        # with no events and a witness in every interval is quiet and in
        # neither count
        paths = {0: (62, 204), 1: (27, 2933), 2: (772, 666), 3: (326, 1034)}
        crossing, short = paths[seed]
        checked = {"crossing": 0, "short": 0, "positions": 0}
        prefixes = []

        def prefix(limit, x_mem, a_new, b_new):
            prefixes.append(trigger_prefix(limit, x_mem, a_new, b_new))
            return prefixes[-1]

        def both(entries, base, s1, x_mem, a_now, b_now, m, positions):
            checked["positions"] += 1
            walk = range_walk(base, s1, m, sorted(a_now | b_now))
            want = x_update(entries, base, s1, x_mem, a_now, b_now, m, walk)
            got = x_update(entries, base, s1, x_mem, a_now, b_now, m, positions)
            assert got == want, (s1, m)
            return got

        def step(run):
            s1 = len(run.kept_counts) + 1
            x_before = set(run.x)
            prefixes.clear()
            original_step(run)
            if not prefixes:
                return
            m, base = prefixes[0], run.base
            walk = range_walk(base, s1, m, sorted(run.a_now | run.b_now))
            added, removed = x_update(
                run.entries, base, s1, x_before, run.a_now, run.b_now, m, walk
            )
            moves = [("xin", s1, y) for y in added] + [("xout", s1, y) for y in removed]
            assert run.x_changes.get(s1, []) == moves, (s1, m)
            checked["short" if m > s1 - 1 and base < s1 - 1 else "crossing"] += 1

        original_step = AttemptRun.step
        monkeypatch.setattr(AttemptRun, "step", step)
        monkeypatch.setattr(sepsim.nosupermax, "trigger_prefix", prefix)
        monkeypatch.setattr(sepsim.nosupermax, "x_update", both)
        sc = nosupermax_scenario(seed, 600)
        run_nosupermax(sc.sets["A"], sc.sets["B"], sc.horizon, chain_certificates(sc))
        want = {"crossing": crossing, "short": short, "positions": crossing}
        assert checked == want

    @settings(max_examples=60, deadline=None)
    @given(attempt_scripts(max_horizon=60), st.integers(1, 60))
    @example(script=(0, [], [(1, 4)], 4), settle=1)  # B entry inside the zone
    def test_speedup_matches_rescanning_reference(self, script, settle):
        base, a, b, horizon = script
        run = run_attempt(1, base, a, b, horizon)
        for ell in range(-1, max(run.kept_counts) + 1):
            k = ell + 1
            # the drawn settling stage, and the one a genuine certificate
            # takes: past the placement of every entry below k
            settled = max(1, base + 2)
            for resets in run.entry_resets[:k]:
                settled = max(settled, resets[-1] + 1 if resets else 1)
            for stage in {min(settle, horizon), min(settled, horizon)}:
                cert = SpeedupCertificate(1, ell, k, k % 2, stage)
                assert apply_speedup(run, cert) == reference_speedup(run, cert), cert


# the most positions x_update may visit over an unchained run
X_VISITS = {
    (0, 2000): 5702, (0, 4000): 4901,
    (2, 2000): 888, (2, 4000): 1776,
    (3, 2000): 13454, (3, 4000): 8316,
}


class TestWorkBounds:
    @pytest.mark.parametrize("seed, horizon", sorted(X_VISITS))
    def test_x_update_examines_wrong_side_numbers_only(self, seed, horizon, monkeypatch):
        # at seed 0 and h = 4,000, the range walk from just above max(base,
        # m) to s examined 48,148 positions; the wrong-side intervals hold
        # about 5,000. Staged-kill (seed 2) visits only the numbers it moves
        work = {"calls": 0, "positions": 0, "changes": 0}

        def counted(*args):
            moves = x_update(*args)
            work["calls"] += 1
            work["positions"] += len(args[-1])  # the positions handed over
            work["changes"] += len(moves[0]) + len(moves[1])
            return moves

        monkeypatch.setattr(sepsim.nosupermax, "x_update", counted)
        sc = nosupermax_scenario(seed, horizon)
        run_nosupermax(sc.sets["A"], sc.sets["B"], sc.horizon, sc.certs)
        assert 0 < work["positions"] <= X_VISITS[seed, horizon], work
        if seed == 2:
            assert work["calls"] == work["positions"] == work["changes"], work

    @pytest.mark.parametrize(
        "seed, horizon, chained, stages, full",
        [
            (0, 4000, False, 4000, 144),
            (3, 4000, False, 4000, 3995),
            (1, 1000, True, 2970, 2970),
            (2, 1000, False, 1000, 998),
        ],
    )
    def test_quiet_full_split(self, seed, horizon, chained, stages, full, monkeypatch):
        # every stage steps once and only a full step computes the trigger
        # prefix: a stage with events, a witness-free interval, or s at or
        # below the base. Of those, only a step with a crossing at or below
        # s, or with s at or below the base, walks the boundary
        crossing = {0: 26, 3: 27, 1: 18, 2: 443}[seed]
        sc = nosupermax_scenario(seed, horizon)
        certs = chain_certificates(sc, want=2) if chained else sc.certs
        calls = {"step": 0, "trigger_prefix": 0, "boundary_update": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(AttemptRun, "step", counted("step", AttemptRun.step))
        prefix = counted("trigger_prefix", trigger_prefix)
        monkeypatch.setattr(sepsim.nosupermax, "trigger_prefix", prefix)
        walk = counted("boundary_update", boundary_update)
        monkeypatch.setattr(sepsim.nosupermax, "boundary_update", walk)
        run_nosupermax(sc.sets["A"], sc.sets["B"], sc.horizon, certs)
        want = {"step": stages, "trigger_prefix": full, "boundary_update": crossing}
        assert calls == want

    def test_huge_certificate_k_is_rejected_at_once(self):
        # the settled prefix below k used to be listed entry by entry, so a
        # k of 10^11 ran for minutes
        k = 10**12
        text = (SAMPLES / "nosupermax-sparse.scn").read_text()
        text = text.replace("end\n", f"cert 1 {k - 1} {k} even 5\nend\n")
        start = time.perf_counter()
        trace = run_scenario(load_scenario(text)).render()
        report = verify_trace(parse_trace(trace))
        elapsed = time.perf_counter() - start
        assert elapsed < 1, elapsed
        line = "cert 1 rejected 5 settled prefix not defined at settling stage"
        assert line in trace.splitlines()
        assert report.passed, report.render()

    def test_speedup_decides_each_position_once_per_change(self, monkeypatch):
        # the zone is swept, not rescanned: X membership is looked up once
        # when a position enters the zone and once per stage at which it
        # toggles in X or enters A or B
        sc = load_scenario_file(CHAIN_SAMPLE)
        result = run_nosupermax(sc.sets["A"], sc.sets["B"], sc.horizon, sc.certs)
        assert len(result.cert_results) == 2
        calls = 0
        original = AttemptRun.x_member_at

        def counted(self, y, t):
            nonlocal calls
            calls += 1
            return original(self, y, t)

        monkeypatch.setattr(AttemptRun, "x_member_at", counted)
        for run, (cert, res) in zip(result.attempts, result.cert_results):
            calls = 0
            assert apply_speedup(run, cert) == res
            toggles = sum(len(stages) for stages in run.x_toggles.values())
            bound = run.horizon + toggles + len(run.a) + len(run.b)
            assert 0 < calls <= bound, (cert, calls, bound)


# Seeds whose chained scenario at h = 200 fails a1-settled-zone-census on its
# own fresh trace. Each mark fails the suite once its trace verifies.
CENSUS_FAILS = {2, 3, 4, 6, 8, 10, 11, 14, 15, 18, 20, 22, 23}
ITEM_1 = pytest.mark.xfail(
    reason="ROADMAP item 1: certificate acceptance and the settled-zone census"
    " test different zones",
    raises=AssertionError,
    strict=True,
)


def chained(seed):
    sc = nosupermax_scenario(seed, 200)
    sc.certs = chain_certificates(sc, want=2)
    return sc.canonical()


class TestOwnTracesVerify:
    """A chained scenario's own fresh trace verifies (ROADMAP item 1, left
    open: the strict xfails keep the known failures visible)."""

    @staticmethod
    def assert_verifies(text):
        report = verify_trace(parse_trace(run_scenario(load_scenario(text)).render()))
        assert report.passed, report.render()

    @pytest.mark.parametrize(
        "seed",
        [
            pytest.param(seed, marks=[ITEM_1] if seed in CENSUS_FAILS else [])
            for seed in range(24)
        ],
    )
    def test_chained_scenario(self, seed):
        self.assert_verifies(chained(seed))

    @ITEM_1
    def test_moved_b_element(self):
        # one B element of the cofinite flavour moved past the horizon
        head, tail = chained(1).split("set B 165 157\n")
        self.assert_verifies(f"{head}set B 4096 157\n{tail}")
