"""Stage sets, pairing scheme, separator predicate."""

import random

import pytest

from sepsim.enumcore import (
    PairingScheme,
    SeparatorSnapshot,
    StageSet,
    is_separator,
    pair,
    unpair,
)


def from_set(members, length: int) -> SeparatorSnapshot:
    return SeparatorSnapshot(
        "".join("1" if i in members else "0" for i in range(length))
    )


def brute_snapshot(events, s):
    return frozenset(e for e, t in events if t <= s)


class TestStageSet:
    def test_snapshot_direct_filter(self):
        ss = StageSet(events=((3, 1), (5, 4)), horizon=10)
        assert ss.snapshot(2) == {3}

    def test_snapshot_empty(self):
        ss = StageSet(events=(), horizon=10)
        for s in range(11):
            assert ss.snapshot(s) == frozenset()

    def test_snapshot_all_in(self):
        events = ((3, 1), (5, 4))
        ss = StageSet(events=events, horizon=10)
        assert ss.snapshot(4) == brute_snapshot(events, 4) == {3, 5}

    def test_beyond_horizon(self):
        ss = StageSet(events=((3, 1),), horizon=5)
        with pytest.raises(ValueError, match="horizon exceeded"):
            ss.snapshot(6)

    def test_element_enters_once(self):
        with pytest.raises(ValueError, match="enters more than once"):
            StageSet(events=((3, 1), (3, 4)), horizon=10)

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="beyond horizon"):
            StageSet(events=((3, 11),), horizon=10)

    def test_monotone_property(self):
        rng = random.Random(11)
        for _ in range(50):
            horizon = rng.randrange(1, 40)
            elems = rng.sample(range(100), rng.randrange(0, 20))
            events = tuple((e, rng.randrange(0, horizon + 1)) for e in elems)
            ss = StageSet(events=events, horizon=horizon)
            prev = frozenset()
            for s in range(horizon + 1):
                snap = ss.snapshot(s)
                assert prev <= snap
                assert snap == brute_snapshot(events, s)
                prev = snap
                entered = sorted(e for e, t in events if t == s)
                assert ss.by_stage.get(s, []) == entered
                for e in range(100):
                    assert ss.member_at(e, s) == (e in snap)
            stage_of = dict(events)
            for e in range(100):
                assert ss.entry_stage(e) == stage_of.get(e)
            assert ss.events == tuple(sorted(events, key=lambda ev: (ev[1], ev[0])))

    def test_builder_round_trip(self):
        ss = StageSet(horizon=9)
        assert ss.add(4, 2)
        assert not ss.add(4, 7)  # second entry is a no-op
        ss.add(1, 5)
        assert ss.add(7, 12)  # past the horizon: unlike the constructor, add keeps it
        assert ss.snapshot(9) == {4, 1}
        assert ss.entry_stage(4) == 2
        assert ss.member_at(7, 12) and ss.events == ((4, 2), (1, 5), (7, 12))


class TestSeparator:
    def test_a_separates_itself(self):
        a, b = {1, 3}, {0, 2}
        x = from_set(a, 5)
        assert is_separator(x, a, b)

    def test_complement_of_b_separates(self):
        a, b = {1}, {0, 2}
        x = SeparatorSnapshot("10101"[::-1])  # complement of b on [0,5)
        x = from_set(set(range(5)) - b, 5)
        assert is_separator(x, a, b)

    def test_a_not_contained(self):
        assert not is_separator(SeparatorSnapshot("010"), {0}, set())

    def test_domain_mismatch(self):
        with pytest.raises(ValueError, match="domain mismatch"):
            is_separator(SeparatorSnapshot("010"), {3}, set())


class FourStructurePairing:
    """The greedy walk as it was first stored: a code per pair, a pair per
    code, the set of taken codes and a scan start per floor. The
    differential reference for PairingScheme's two structures."""

    def __init__(self):
        self._code: dict[tuple[int, int], int] = {}
        self._pair_of: dict[int, tuple[int, int]] = {}
        self._used: set[int] = set()
        self._min_unused = 0
        self._diag = 0
        self._next_free: dict[int, int] = {}

    def _assign_diagonal(self):
        d = self._diag
        for n in range(d, -1, -1):
            i = d - n
            floor = n * n * n
            c = max(floor, self._next_free.get(floor, floor))
            while c in self._used:
                c += 1
            self._used.add(c)
            self._next_free[floor] = c + 1
            self._code[(n, i)] = c
            self._pair_of[c] = (n, i)
        while self._min_unused in self._used:
            self._min_unused += 1
        self._diag += 1

    def code(self, n, i):
        while (n, i) not in self._code:
            self._assign_diagonal()
        return self._code[(n, i)]

    def decode(self, c):
        if c < 0:
            return None
        while self._min_unused <= c and c not in self._pair_of:
            self._assign_diagonal()
        return self._pair_of.get(c)


def brute_greedy_codes(limit_diag):
    """Independent re-enumeration of the greedy assignment in Cantor order."""
    used = set()
    codes = {}
    for d in range(limit_diag + 1):
        for n in range(d, -1, -1):
            i = d - n
            c = n * n * n
            while c in used:
                c += 1
            used.add(c)
            codes[(n, i)] = c
    return codes


class TestPairing:
    def test_first_values(self):
        assert pair(0, 0) == 0
        assert pair(2, 0) == 8

    def test_matches_independent_enumeration(self):
        oracle = brute_greedy_codes(60)
        scheme = PairingScheme()
        for (n, i), c in oracle.items():
            assert scheme.code(n, i) == c

    def test_matches_four_structure_reference(self):
        scheme, ref = PairingScheme(), FourStructurePairing()
        for c in range(-1, 20_000):
            assert scheme.decode(c) == ref.decode(c), c
        for d in range(600):
            for n in range(d + 1):
                assert scheme.code(n, d - n) == ref.code(n, d - n), (n, d - n)

    def test_floor_codes_rise(self):
        for n in range(40):
            codes = [pair(n, i) for i in range(201)]
            assert all(a < b for a, b in zip(codes, codes[1:])), n

    def test_lower_bound_and_injectivity(self):
        seen = {}
        for n in range(51):
            for i in range(51):
                c = pair(n, i)
                assert c >= n**3
                assert c not in seen, f"collision {seen.get(c)} vs {(n, i)}"
                seen[c] = (n, i)

    def test_round_trip(self):
        assert unpair(pair(3, 2)) == (3, 2)
        assert unpair(pair(0, 0)) == (0, 0)
        rng = random.Random(7)
        for _ in range(100):
            n, i = rng.randrange(0, 30), rng.randrange(0, 30)
            assert unpair(pair(n, i)) == (n, i)

    def test_decode_outside_small_box_is_never_inside_it(self):
        # Codes below 20^3 that no (n, i) with n, i <= 20 received decode to
        # pairs outside that box (the greedy scheme eventually covers all of
        # N, so decoding is total rather than partial).
        box = {pair(n, i) for n in range(21) for i in range(21)}
        rng = random.Random(13)
        outside = [c for c in rng.sample(range(20**3), 120) if c not in box]
        for c in outside[:30]:
            got = unpair(c)
            assert got is not None
            n, i = got
            assert n > 20 or i > 20
            assert pair(n, i) == c

    def test_column_census_possible(self):
        # The spectrum construction needs at most k * k^2 column codes below
        # k^3; count them exhaustively.
        for k in range(1, 31):
            cube = k**3
            count = 0
            for n in range(k):
                for i in range(n * n + 1):
                    if pair(n, i) < cube:
                        count += 1
            assert count <= k * k * k

