"""Finite, scriptable oracle functionals and use-bounded operators.

A functional is a finite rule table, not an interpreter: every construction
here only ever consults a functional on finitely many (oracle prefix, input)
pairs below the horizon, and rule tables make adversaries exactly scriptable.
Rules carry an availability stage so a scenario can delay convergence.

An oracle is a finite prefix given as a Python int and a length: bit i of the
int is position i of the prefix, and no bit at or past the length is set. A
guard is then checked as `bits & mask == want`. `bits_of` turns a finite set
into its oracle int; strings of '0'/'1' appear only where traces record a
prefix.
"""

from __future__ import annotations


class OracleRule:
    """One rule of a functional; rules compare and hash by value."""

    __slots__ = ("guard", "input", "output", "use", "available_at")

    def __init__(self, guard, input: int, output: int, use: int, available_at: int = 0):
        if type(guard) is not tuple:
            guard = tuple(guard)
        last = -1
        for p, _ in guard:
            if p <= last:
                # not increasing: sort, then refuse a repeated position
                # before any bad entry
                guard = tuple(sorted(guard))
                positions = [p for p, _ in guard]
                if len(set(positions)) != len(positions):
                    raise ValueError("guard mentions a position twice")
                break
            last = p
        for p, b in guard:
            if p < 0 or b not in (0, 1):
                raise ValueError(f"bad guard entry ({p}, {b})")
            if p >= use:
                raise ValueError(
                    f"use-honesty violated: guard position {p} >= use {use}"
                )
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


class OracleProgram:
    """A deterministic finite functional.

    Determinism: two rules for the same input whose guards could both be
    satisfied by one oracle must agree on output and use (availability may
    differ; it only delays convergence). The check reads guards as the
    (mask, want) pairs of compiled_for, which it thus fills for every input
    with two or more rules: guards a and b are compatible iff
    (want_a ^ want_b) & mask_a & mask_b == 0.
    """

    def __init__(self, rules=()):
        self.rules = tuple(rules)
        self._by_input: dict[int, list[OracleRule]] = {}
        # input -> compiled_for(input), filled on first evaluation
        self._compiled: dict[int, list[tuple[int, int, int, int, int]]] = {}
        for r in self.rules:
            self._by_input.setdefault(r.input, []).append(r)
        for y, rs in self._by_input.items():
            if len(rs) < 2:
                continue
            compiled = self.compiled_for(y)
            for i, (_, use_a, mask_a, want_a, out_a) in enumerate(compiled):
                for _, use_b, mask_b, want_b, out_b in compiled[i + 1 :]:
                    if (want_a ^ want_b) & mask_a & mask_b == 0 and (
                        out_a != out_b or use_a != use_b
                    ):
                        raise ValueError(
                            f"nondeterministic program: rules for input {y} with "
                            f"compatible guards disagree on output or use"
                        )
        # Largest C such that inputs [0, C) all have at least one rule.
        c = 0
        while c in self._by_input:
            c += 1
        self.contiguous_cover = c

    def __len__(self):
        return len(self.rules)

    def rules_for(self, y: int) -> list[OracleRule]:
        return self._by_input.get(y, [])

    def compiled_for(self, y: int) -> list[tuple[int, int, int, int, int]]:
        """The rules for input y as (available_at, use, mask, want, output)
        with least use first (tie: least availability, then rule order)."""
        compiled = self._compiled.get(y)
        if compiled is None:
            compiled = []
            for r in self.rules_for(y):
                mask = want = 0
                for p, b in r.guard:
                    mask |= 1 << p
                    want |= b << p
                compiled.append((r.available_at, r.use, mask, want, r.output))
            compiled.sort(key=lambda c: (c[1], c[0]))
            self._compiled[y] = compiled
        return compiled


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
        for r in program.rules:
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
