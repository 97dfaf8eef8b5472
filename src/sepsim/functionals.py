"""Finite, scriptable oracle functionals and use-bounded operators.

A functional is a finite rule table, not an interpreter: every construction
here only ever consults a functional on finitely many (oracle prefix, input)
pairs below the horizon, and rule tables make adversaries exactly scriptable.
Rules carry an availability stage so a scenario can delay convergence.

An oracle is a finite prefix given as a Python int and a length: bit i of the
int is position i of the prefix, and no bit at or past the length is set. A
guard is then checked as `bits & mask == want`. `bits_of` turns a finite set
into its oracle int; strings of '0'/'1' appear only where traces record a
prefix and as the sigma of anticomplete's copy step (`sigma_search`).

A program holds its rules as compiled rows, (available_at, use, mask, want,
output). `scenario.parse_scenario` reads each rule line straight into its
row, so a parsed program builds no OracleRule unless a reader asks for its
`rules`; programs built from OracleRules, as the corpus and the tests build
them, compile the same rows.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import itemgetter


def checked_guard(guard, use=float("inf")):
    """The guard sorted by position; a repeated position is refused before
    any bad entry, and bad entries are named in position order."""
    guard = tuple(sorted(guard))
    positions = [p for p, _ in guard]
    if len(set(positions)) != len(positions):
        raise ValueError("guard mentions a position twice")
    for p, b in guard:
        if p < 0 or b not in (0, 1):
            raise ValueError(f"bad guard entry ({p}, {b})")
        if p >= use:
            raise ValueError(f"use-honesty violated: guard position {p} >= use {use}")
    return guard


def guard_mask(guard) -> tuple[int, int]:
    """A guard as (mask, want): bit p of mask is set for each guarded
    position p, and bit p of want when p must hold 1."""
    mask = want = 0
    for p, b in guard:
        mask |= 1 << p
        want |= b << p
    return mask, want


def guard_of(mask: int, want: int) -> tuple[tuple[int, int], ...]:
    """The guard, by position, of a (mask, want) pair; guard_mask's inverse."""
    guard = []
    while mask:
        low = mask & -mask
        guard.append((low.bit_length() - 1, 1 if want & low else 0))
        mask ^= low
    return tuple(guard)


class OracleRule:
    """One rule of a functional; rules compare and hash by value."""

    __slots__ = ("guard", "input", "output", "use", "available_at")

    def __init__(self, guard, input: int, output: int, use: int, available_at: int = 0):
        if type(guard) is not tuple:
            guard = tuple(guard)
        last = -1
        for p, b in guard:
            if p <= last or b not in (0, 1) or p >= use:
                guard = checked_guard(guard, use)
                break
            last = p
        if input < 0 or use < 0 or available_at < 0:
            raise ValueError("rule fields must be naturals")
        if output not in (0, 1):
            raise ValueError("output must be a bit")
        self.guard = guard  # (oracle position, required bit), by position
        self.input = input
        self.output = output
        self.use = use
        self.available_at = available_at

    def _key(self):
        return (self.guard, self.input, self.output, self.use, self.available_at)

    def __eq__(self, other):
        return type(other) is OracleRule and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def rows_in_order(by_input, order):
    """(input, row) for each rule of a program's rows, in rule order: `order`
    holds each rule's input, and by_input[y] the rows of input y in order."""
    taken = dict.fromkeys(by_input, 0)
    for y in order:
        i = taken[y]
        taken[y] = i + 1
        yield y, by_input[y][i]


class OracleProgram:
    """A deterministic finite functional, held as compiled rows.

    A row is one rule as (available_at, use, mask, want, output), its guard
    as a (mask, want) pair that rules with equal guards share. A program is
    built from OracleRules or from rows already compiled, which is how
    parse_scenario reads a rule line; its rules are then derived on first
    access. Determinism: two rules for the same input whose guards could
    both be satisfied by one oracle must agree on output and use
    (availability may differ; it only delays convergence). Guards a and b
    are compatible iff (want_a ^ want_b) & mask_a & mask_b == 0.
    """

    def __init__(self, rules=(), rows=None):
        """From OracleRules, or from `rows`: the pair (input -> its rows in
        rule order, the input of each rule in rule order)."""
        if rows is None:
            rules = tuple(rules)
            by_input: dict[int, list] = {}
            order = []
            masks: dict[tuple, tuple[int, int]] = {}  # guard -> (mask, want)
            for r in rules:
                pair = masks.get(r.guard)
                if pair is None:
                    pair = masks[r.guard] = guard_mask(r.guard)
                row = (r.available_at, r.use, pair[0], pair[1], r.output)
                by_input.setdefault(r.input, []).append(row)
                order.append(r.input)
        else:
            by_input, order = rows
            rules = None
        self._rules = rules
        self._read = by_input  # rows in rule order, from which rules derive
        self._order = order
        self._rules_by_input = None  # input -> its rules, filled by rules_for
        # input -> compiled_for(input)
        self._compiled: dict[int, list[tuple[int, int, int, int, int]]] = {}
        for y, compiled in by_input.items():
            if len(compiled) > 1:
                compiled = sorted(compiled, key=itemgetter(1, 0))
                for a, b in combinations(compiled, 2):
                    # rows are (available_at, use, mask, want, output)
                    if (a[4] != b[4] or a[1] != b[1]) and (a[3] ^ b[3]) & a[2] & b[2] == 0:
                        raise ValueError(
                            f"nondeterministic program: rules for input {y} with "
                            f"compatible guards disagree on output or use"
                        )
            self._compiled[y] = compiled
        # Largest C such that inputs [0, C) all have at least one rule.
        c = 0
        while c in self._compiled:
            c += 1
        self.contiguous_cover = c

    def __len__(self):
        return len(self._order)

    @property
    def rules(self) -> tuple[OracleRule, ...]:
        """The rules in the order given or read."""
        if self._rules is None:
            self._rules = tuple(
                OracleRule(guard_of(mask, want), y, output, use, available_at)
                for y, (available_at, use, mask, want, output) in rows_in_order(
                    self._read, self._order
                )
            )
        return self._rules

    def rules_for(self, y: int) -> list[OracleRule]:
        if self._rules_by_input is None:
            self._rules_by_input = {}
            for r in self.rules:
                self._rules_by_input.setdefault(r.input, []).append(r)
        return self._rules_by_input.get(y, [])

    def compiled_for(self, y: int) -> list[tuple[int, int, int, int, int]]:
        """The rules for input y as (available_at, use, mask, want, output)
        with least use first (tie: least availability, then rule order)."""
        return self._compiled.get(y, ())

    def compiled_rows(self):
        """Every row, input by input, each input's as compiled_for gives them."""
        return chain.from_iterable(self._compiled.values())


EMPTY_PROGRAM = OracleProgram()


def evaluate(prog: OracleProgram, bits: int, length: int, y: int, s: int):
    """Run the functional at stage s on the oracle prefix of the given length
    whose bit i is position i.

    Returns (output, use) when some rule matches, None otherwise. A rule
    matches when it is available by stage s, its use is at most the length,
    and its guard holds on the oracle. Among matching rules the one with
    least use (tie: least availability) answers; the determinism invariant
    makes the answer unique anyway.
    """
    for available_at, use, mask, want, output in prog.compiled_for(y):
        if use > length:
            break
        if available_at <= s and bits & mask == want:
            return (output, use)
    return None


def bits_of(members) -> int:
    """The oracle int of a finite set of naturals."""
    bits = 0
    for e in members:
        bits |= 1 << e
    return bits


# ---------------------------------------------------------------------------
# Use bounds and wtt operators


class UseBound:
    """A finite monotone table f with f(x) > x, bounding oracle use."""

    __slots__ = ("table",)

    def __init__(self, table: tuple[int, ...]):
        prev = None
        for x, fx in enumerate(table):
            if fx <= x:
                raise ValueError(f"use bound not strict: f({x}) = {fx}")
            if prev is not None and fx < prev:
                raise ValueError(f"use bound not monotone at {x}")
            prev = fx
        self.table = table

    @property
    def domain(self) -> int:
        return len(self.table)

    def __call__(self, x: int) -> int:
        if x < 0 or x >= len(self.table):
            raise ValueError(f"bound table exhausted at {x}")
        return self.table[x]


class UseBoundedOperator:
    """A wtt operator: a program whose use on input x never exceeds bound(x)."""

    __slots__ = ("program", "bound")

    def __init__(self, program: OracleProgram, bound: UseBound):
        table = bound.table
        if any(
            y >= len(table) or compiled[-1][1] > table[y]  # the input's largest use
            for y, compiled in program._compiled.items()
        ):
            for r in program.rules:  # name the first such rule in rule order
                if r.input >= bound.domain:
                    raise ValueError(
                        f"bound table exhausted: rule input {r.input} outside table"
                    )
                if r.use > bound(r.input):
                    raise ValueError(
                        f"rule for input {r.input} has use {r.use} > bound "
                        f"{bound(r.input)}"
                    )
        self.program = program
        self.bound = bound


def wtt_apply(op: UseBoundedOperator, bits: int, x: int, s: int):
    """Apply the operator to the oracle int restricted below bound(x).

    Returns the output bit, or None when the computation diverges at stage s.
    """
    limit = op.bound(x)  # raises "bound table exhausted" outside the table
    res = evaluate(op.program, bits & ((1 << limit) - 1), limit, x, s)
    return None if res is None else res[0]
