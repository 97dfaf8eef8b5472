"""Stage-indexed set machinery, the column pairing scheme, and separator checks.

Everything downstream consumes these primitives: monotone stage-stamped sets
(the c.e. approximations), finite binary strings standing in for separators,
and the injective column coding with code(n, i) >= n^3.
"""

from __future__ import annotations

from bisect import bisect_left, insort

Stage = int

PAIRING_SCHEME_ID = "greedy-cantor-cube"


# ---------------------------------------------------------------------------
# Stage-stamped sets


class StageSet:
    """A monotone stage-indexed finite set: elements enter once, never leave.

    `entry` maps each element to its entry stage and is the ground truth, so
    entry stages are never lost; the per-stage index, the event log and the
    snapshots are views of it. `by_stage`, the per-stage index, maps a stage
    to its elements, sorted; hot loops read it without a copy, and nothing
    outside `add` may change it or its lists. Constructor events are checked
    against the horizon. `add`, which a running construction calls, is not: a
    re-indexed attempt keeps the events that fall past its own horizon.
    """

    def __init__(self, events=(), *, horizon: int):
        self.horizon = horizon
        self.entry: dict[int, int] = {}
        self.by_stage: dict[int, list[int]] = {}
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
        insort(self.by_stage.setdefault(stage, []), element)
        return True

    def member_at(self, element: int, s: Stage) -> bool:
        """Whether the element has entered by stage s."""
        t = self.entry.get(element)
        return t is not None and t <= s

    @property
    def events(self) -> tuple[tuple[int, int], ...]:
        """(element, entry stage) pairs in (stage, element) order."""
        return tuple((e, t) for t in sorted(self.by_stage) for e in self.by_stage[t])

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
    not yet taken. Injective, code(n, i) >= n^3, and dense: floor 0 takes
    the least free number above its last code, so decoding a code only
    takes extending the walk until the code is taken.

    `_floors[n]` lists the codes of (n, 0), (n, 1), ... in order; they rise,
    as a floor's next candidate is its last code + 1. `_floor_of` maps each
    taken code to its floor, so it is also the taken set, and i is the
    code's rank in its floor. D diagonals hold about D^2/2 pairs, and a run
    of horizon h reaches D ~ h^(2/3): Theta(h^(4/3)) time and memory.
    """

    name = PAIRING_SCHEME_ID

    def __init__(self):
        self._floors: list[list[int]] = []
        self._floor_of: dict[int, int] = {}

    def _assign_diagonal(self):
        floors, floor_of = self._floors, self._floor_of
        d = len(floors)
        floors.append([])
        for n in range(d, -1, -1):
            codes = floors[n]
            c = codes[-1] + 1 if codes else n * n * n
            while c in floor_of:
                c += 1
            floor_of[c] = n
            codes.append(c)

    def code(self, n: int, i: int) -> int:
        if n < 0 or i < 0:
            raise ValueError("pair components must be naturals")
        while len(self._floors) <= n + i:
            self._assign_diagonal()
        return self._floors[n][i]

    def decode(self, c: int) -> tuple[int, int] | None:
        if c < 0:
            return None
        while c not in self._floor_of:
            self._assign_diagonal()
        n = self._floor_of[c]
        return n, bisect_left(self._floors[n], c)


_SCHEME = PairingScheme()


def pair(n: int, i: int) -> int:
    return _SCHEME.code(n, i)


def unpair(c: int) -> tuple[int, int] | None:
    return _SCHEME.decode(c)

