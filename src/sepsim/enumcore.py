"""Stage-indexed set machinery, the column pairing scheme, and separator checks.

Everything downstream consumes these primitives: monotone stage-stamped sets
(the c.e. approximations), finite binary strings standing in for separators,
the injective column coding with code(n, i) >= n^3, and the fresh-number
source that makes "pick a large number" reproducible.
"""

from __future__ import annotations

from bisect import insort

Stage = int

PAIRING_SCHEME_ID = "greedy-cantor-cube"


# ---------------------------------------------------------------------------
# Stage-stamped sets


class StageSet:
    """A monotone stage-indexed finite set: elements enter once, never leave.

    `entry` maps each element to its entry stage and is the ground truth, so
    entry stages are never lost; the per-stage index, the event log and the
    snapshots are views of it. Constructor events are checked against the
    horizon. `add`, which a running construction calls, is not: a
    re-indexed attempt keeps the events that fall past its own horizon.
    """

    def __init__(self, events=(), *, horizon: int):
        self.horizon = horizon
        self.entry: dict[int, int] = {}
        self._by_stage: dict[int, list[int]] = {}
        for element, stage in events:
            if element < 0 or stage < 0:
                raise ValueError(f"negative event ({element}, {stage})")
            if stage > horizon:
                raise ValueError(f"event ({element}, {stage}) beyond horizon {horizon}")
            if not self.add(element, stage):
                raise ValueError(f"element {element} enters more than once")

    def add(self, element: int, stage: Stage) -> bool:
        """Record entry; returns False (no-op) when the element is present."""
        if element in self.entry:
            return False
        self.entry[element] = stage
        insort(self._by_stage.setdefault(stage, []), element)
        return True

    def entered_at(self, s: Stage) -> tuple[int, ...]:
        """The elements stamped s, sorted."""
        return tuple(self._by_stage.get(s, ()))

    def member_at(self, element: int, s: Stage) -> bool:
        """Whether the element has entered by stage s."""
        t = self.entry.get(element)
        return t is not None and t <= s

    @property
    def events(self) -> tuple[tuple[int, int], ...]:
        """(element, entry stage) pairs in (stage, element) order."""
        return tuple((e, t) for t in sorted(self._by_stage) for e in self._by_stage[t])

    def snapshot(self, s: Stage) -> frozenset[int]:
        """Elements with entry stage <= s."""
        if s > self.horizon:
            raise ValueError(f"horizon exceeded: stage {s} > horizon {self.horizon}")
        if s < 0:
            raise ValueError(f"negative stage {s}")
        return frozenset(e for e, t in self.entry.items() if t <= s)

    def entry_stage(self, element: int) -> int | None:
        return self.entry.get(element)

    def final(self) -> frozenset[int]:
        return self.snapshot(self.horizon)

    def __contains__(self, element: int) -> bool:
        return element in self.entry

    def __len__(self) -> int:
        return len(self.entry)


# ---------------------------------------------------------------------------
# Separator snapshots


class SeparatorSnapshot:
    """A finite binary string read as a subset of [0, length)."""

    __slots__ = ("bits",)

    def __init__(self, bits: str):
        if any(c not in "01" for c in bits):
            raise ValueError("bits must be a 0/1 string")
        self.bits = bits

    def __eq__(self, other):
        return type(other) is SeparatorSnapshot and self.bits == other.bits

    @property
    def length(self) -> int:
        return len(self.bits)

    def __getitem__(self, position: int) -> int:
        return 1 if self.bits[position] == "1" else 0


def is_separator(x: SeparatorSnapshot, a, b) -> bool:
    """True iff a is contained in x and x misses b entirely."""
    for e in a:
        if e >= x.length:
            raise ValueError(f"domain mismatch: element {e} >= length {x.length}")
    for e in b:
        if e >= x.length:
            raise ValueError(f"domain mismatch: element {e} >= length {x.length}")
    return all(x[e] == 1 for e in a) and all(x[e] == 0 for e in b)


# ---------------------------------------------------------------------------
# Column pairing


class PairingScheme:
    """Greedy column coding: walk pairs (n, i) in Cantor diagonal order
    ((0,0), (1,0), (0,1), (2,0), ...) and give each the least natural >= n^3
    not yet taken.

    Injective by construction, code(n, i) >= n^3, and dense enough that the
    whole of N is eventually covered, so decoding a code only takes extending
    the walk until the least unassigned value passes it.
    """

    name = PAIRING_SCHEME_ID

    def __init__(self):
        self._code: dict[tuple[int, int], int] = {}
        self._pair_of: dict[int, tuple[int, int]] = {}
        self._used: set[int] = set()
        self._min_unused = 0
        self._diag = 0  # next diagonal to enumerate
        self._next_free: dict[int, int] = {}  # floor -> scan start hint

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

    def code(self, n: int, i: int) -> int:
        if n < 0 or i < 0:
            raise ValueError("pair components must be naturals")
        while (n, i) not in self._code:
            self._assign_diagonal()
        return self._code[(n, i)]

    def decode(self, c: int) -> tuple[int, int] | None:
        if c < 0:
            return None
        while self._min_unused <= c and c not in self._pair_of:
            self._assign_diagonal()
        return self._pair_of.get(c)


_SCHEME = PairingScheme()


def pair(n: int, i: int) -> int:
    return _SCHEME.code(n, i)


def unpair(c: int) -> tuple[int, int] | None:
    return _SCHEME.decode(c)


# ---------------------------------------------------------------------------
# Fresh numbers


class FreshSource:
    """Single source for every "pick a large/fresh number" choice in a run.

    Tracks the maximum of every number recorded in the trace so far; fresh()
    hands out that maximum plus one. Keeps runs reproducible without a seed.
    """

    def __init__(self):
        self._max = -1

    def note(self, *numbers: int):
        for v in numbers:
            if v > self._max:
                self._max = v

    def fresh(self) -> int:
        self._max += 1
        return self._max
