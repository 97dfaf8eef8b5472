"""Block coding of an arbitrary target set into a separator, and its inverse.

Given disjoint scripted c.e. sets A, B that compute each other through
use-bounded operators (use bounded by a monotone f with f(x) > x), a target
set C is written into a separator Z block by block: on block n the string Z
copies A when n is outside C and copies the complement of B when n is inside.
Block boundaries come in two flavours, declared by the scenario:

* case 1: boundaries iterate f starting from a point k past which no interval
  (x, f(x)] is fully covered by A and B;
* case 2: boundaries are the least points x whose interval (x, f(x)] is fully
  covered while (previous, x] is not.

Decoding waits, per block, for a stage at which Z agrees with the current A
or with the complement of the current B on the block; in case 2 the
boundaries themselves are recovered from Z by a four-condition stage search.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .enumcore import SeparatorSnapshot, StageSet
from .errors import HypothesisViolation
from .functionals import UseBound, UseBoundedOperator, bits_of, wtt_apply


class CaseTag:
    __slots__ = ("tag", "k")

    def __init__(self, tag: int, k: int | None = None):
        if tag not in (1, 2):
            raise ValueError(f"no such case {tag}")
        if tag == 1 and (k is None or k < 0):
            raise ValueError("case 1 carries a natural k")
        if tag == 2 and k is not None:
            raise ValueError("case 2 carries no k")
        self.tag = tag  # 1 or 2
        self.k = k  # case 1 only: bound below which covered points live


class MSequenceResult:
    __slots__ = ("values", "missing_index")

    def __init__(self, values: list[int], missing_index: int | None = None):
        self.values = values
        self.missing_index = missing_index  # first index not witnessed below horizon

    @property
    def complete(self) -> bool:
        return self.missing_index is None


def _covered(x: int, f: UseBound, union) -> bool:
    """(x, f(x)] fully inside the union."""
    return all(y in union for y in range(x + 1, f(x) + 1))


def classify_case(
    a: StageSet, b: StageSet, f: UseBound, horizon: int, declared: CaseTag
) -> bool:
    """Consistency of the declared case with the horizon snapshots.

    The true split is not decidable from finite data, so this only reports
    whether the snapshots contradict the declaration: case 1 with bound k is
    consistent when no x >= k in the scannable range is covered; case 2 when
    at least ceil(horizon/10) points are covered.
    """
    union = a.snapshot(horizon) | b.snapshot(horizon)
    limit = min(f.domain, horizon)
    covered = [x for x in range(limit) if _covered(x, f, union)]
    if declared.tag == 1:
        return not any(x >= declared.k for x in covered)
    return len(covered) >= -(-horizon // 10)


def m_sequence(
    case: CaseTag, a_mem, b_mem, f: UseBound, count: int
) -> MSequenceResult:
    """First `count` block boundaries against the given snapshots.

    Case 1 iterates f from k. Case 2 runs the least-x recursion; when some
    boundary is not witnessed within the bound table, the result carries the
    index that is still missing.
    """
    if count <= 0:
        return MSequenceResult(values=[])
    if case.tag == 1:
        values = [case.k]
        while len(values) < count:
            values.append(f(values[-1]))  # raises "bound table exhausted"
        return MSequenceResult(values=values)
    union = set(a_mem) | set(b_mem)
    values = [-1]
    while len(values) < count:
        prev = values[-1]
        nxt = None
        for x in range(prev + 1, f.domain):
            if not all(y in union for y in range(prev + 1, x + 1)) and _covered(
                x, f, union
            ):
                nxt = x
                break
        if nxt is None:
            return MSequenceResult(values=values, missing_index=len(values))
        values.append(nxt)
    return MSequenceResult(values=values)


def encode_separator(
    c_mem, m_values, a_mem, b_mem, length: int | None = None
) -> SeparatorSnapshot:
    """Write C into a separator string over [0, last boundary].

    Block n is (m_n, m_{n+1}]; inside C the block copies the complement of B,
    outside it copies A. Positions at or below the first boundary copy A.
    """
    if not m_values:
        raise ValueError("m-sequence too short")
    last = m_values[-1]
    if length is None:
        length = last + 1
    if length - 1 > last:
        raise ValueError("m-sequence too short")
    bits = []
    for y in range(length):
        n = bisect_left(m_values, y) - 1  # block index with m_n < y <= m_{n+1}
        if y <= m_values[0]:
            bits.append("1" if y in a_mem else "0")
            continue
        if n in c_mem:
            bits.append("0" if y in b_mem else "1")
        else:
            bits.append("1" if y in a_mem else "0")
    return SeparatorSnapshot("".join(bits))


def _agreement_window(z, stage_of, block, positive):
    """Stages s at which z matches the indicator run 'position entered by s'
    (positive=True: match means bit 1 once entered; False: bit 0 once entered).

    Returns a half-open interval [lo, hi) in stage numbers, possibly empty
    (lo > hi). stage_of maps position -> entry stage or None.
    """
    lo, hi = 0, float("inf")
    want_in = "1" if positive else "0"
    for y in block:
        t = stage_of(y)
        if z.bits[y] == want_in:
            if t is None:
                return (1, 0)  # never agrees
            lo = max(lo, t)
        else:
            if t is not None:
                hi = min(hi, t - 1)
    return (lo, hi)


def decode_block(
    z: SeparatorSnapshot,
    a: StageSet,
    b: StageSet,
    m_n: int,
    m_n1: int,
    horizon: int,
):
    """First stage at which Z agrees with exactly one of A_s / complement of
    B_s on the block; returns (0, stage) for the A side, (1, stage) for the
    complement-of-B side.

    Stages where both sides agree are skipped (the answer must be stable
    under further enumeration); if no stage up to the horizon decides,
    raises "undecided at horizon".
    """
    block = range(m_n + 1, m_n1 + 1)
    wa = _agreement_window(z, a.entry_stage, block, positive=True)
    wb = _agreement_window(z, b.entry_stage, block, positive=False)
    for s in range(horizon + 1):
        ina = wa[0] <= s <= wa[1]
        inb = wb[0] <= s <= wb[1]
        if ina != inb:
            return (0 if ina else 1, s)
        if ina and inb:
            continue
    raise ValueError("undecided at horizon")


def simultaneous_agreement_stages(z, a, b, m_n, m_n1, horizon):
    """Stages at which Z agrees with both sides on the block (empty when the
    block keeps a point out of A and B, which is the mutual-exclusion fact
    the decoder relies on)."""
    block = range(m_n + 1, m_n1 + 1)
    wa = _agreement_window(z, a.entry_stage, block, positive=True)
    wb = _agreement_window(z, b.entry_stage, block, positive=False)
    lo = max(wa[0], wb[0])
    hi = min(wa[1], wb[1], horizon)
    return range(lo, hi + 1) if lo <= hi else range(0)


class WttAgreementTable:
    """Per-scenario cache: for each input w, the stages at which the two
    operators both halt on the current-approximation oracle and match the
    final target sets."""

    def __init__(self, a: StageSet, b: StageSet, gamma, delta, f, horizon):
        self.horizon = horizon
        self.f = f
        a_final = a.snapshot(horizon)
        b_final = b.snapshot(horizon)

        def run_table(op, w, by_stage, want):
            """Walk the breakpoints in order, ORing each entry below f(w)
            into one running oracle as its stage is reached."""
            fw = f(w)
            entries = [(t, e) for t, e in by_stage if e < fw]
            pts = {0, *(t for t, _ in entries)}
            pts.update(r.available_at for r in op.program.rules_for(w))
            stages, values = [], []
            bits, i = 0, 0
            for t in sorted(p for p in pts if p <= horizon):
                while i < len(entries) and entries[i][0] <= t:
                    bits |= 1 << entries[i][1]
                    i += 1
                stages.append(t)
                values.append(wtt_apply(op, bits, w, t) == want)
            return stages, values

        a_by_stage = sorted((t, e) for e, t in a.entry.items())
        b_by_stage = sorted((t, e) for e, t in b.entry.items())
        self._gamma: list[tuple[list[int], list[bool]]] = []
        self._delta: list[tuple[list[int], list[bool]]] = []
        self.width = min(f.domain, horizon)
        for w in range(self.width):
            want_g, want_d = int(w in b_final), int(w in a_final)
            self._gamma.append(run_table(gamma, w, a_by_stage, want_g))
            self._delta.append(run_table(delta, w, b_by_stage, want_d))

    def _ok(self, table, w, s):
        stages, values = table[w]
        i = bisect_right(stages, s) - 1
        return values[i] if i >= 0 else False

    def agree_prefix(self, s: int) -> int:
        """Largest X such that both operators match their targets on every
        input below X at stage s."""
        w = 0
        while w < self.width and self._ok(self._gamma, w, s) and self._ok(
            self._delta, w, s
        ):
            w += 1
        return w


def recover_m_next(
    z: SeparatorSnapshot,
    a: StageSet,
    b: StageSet,
    gamma: UseBoundedOperator,
    delta: UseBoundedOperator,
    f: UseBound,
    m_prefix,
    horizon: int,
    table: WttAgreementTable | None = None,
):
    """Recover the next block boundary from Z by the four-condition stage
    search; returns (boundary, stage at which the search first succeeds).

    Conditions at stage s: every earlier block agrees with A_s or with the
    complement of B_s; every earlier boundary's f-interval is covered by
    stage s; and some x past the last known boundary has (i) both operators
    matching the final sets on all inputs up to x, (ii) block agreement on
    (last, x], (iii) a point of (last, x] outside the stage-s union, and
    (iv) (x, f(x)] inside the stage-s union. The least such x wins.
    """
    if table is None:
        table = WttAgreementTable(a, b, gamma, delta, f, horizon)
    m_n = m_prefix[-1]
    n = len(m_prefix) - 1
    windows = []
    for i in range(n):
        block = range(m_prefix[i] + 1, m_prefix[i + 1] + 1)
        wa = _agreement_window(z, a.entry_stage, block, positive=True)
        wb = _agreement_window(z, b.entry_stage, block, positive=False)
        windows.append((wa, wb))

    candidate_stages = {0, *a.entry.values(), *b.entry.values()}
    for op in (gamma, delta):
        for r in op.program.rules:
            candidate_stages.add(r.available_at)

    for s in sorted(t for t in candidate_stages if t <= horizon):
        ok = True
        for i in range(n):
            wa, wb = windows[i]
            if not (wa[0] <= s <= wa[1] or wb[0] <= s <= wb[1]):
                ok = False
                break
        if ok:
            for i in range(n):
                mi = m_prefix[i]
                if mi < 0:
                    continue
                if not all(
                    a.member_at(y, s) or b.member_at(y, s)
                    for y in range(mi + 1, f(mi) + 1)
                ):
                    ok = False
                    break
        if not ok:
            continue
        prefix = table.agree_prefix(s)
        hole_seen = False
        for x in range(m_n + 1, min(f.domain, z.length)):
            if x >= prefix:
                break
            if not (a.member_at(x, s) or b.member_at(x, s)):
                hole_seen = True
            # block agreement on (m_n, x]
            blk = range(m_n + 1, x + 1)
            wa = _agreement_window(z, a.entry_stage, blk, positive=True)
            wb = _agreement_window(z, b.entry_stage, blk, positive=False)
            if not (wa[0] <= s <= wa[1] or wb[0] <= s <= wb[1]):
                continue
            if not hole_seen:
                continue
            if not all(
                a.member_at(y, s) or b.member_at(y, s)
                for y in range(x + 1, f(x) + 1)
            ):
                continue
            return (x, s)
    raise ValueError("not settled")


def audit_hypotheses(
    a: StageSet,
    b: StageSet,
    gamma: UseBoundedOperator,
    delta: UseBoundedOperator,
    f: UseBound,
    horizon: int,
):
    """Pre-run audit: A and B disjoint, at least one point outside their
    union, and the operators compute each side from the other bit by bit on
    [0, horizon) at the horizon. Raises HypothesisViolation otherwise."""
    a_final = a.snapshot(horizon)
    b_final = b.snapshot(horizon)
    inter = a_final & b_final
    if inter:
        raise HypothesisViolation(
            f"scripted sets intersect at element {min(inter)}"
        )
    width = min(horizon, f.domain)
    if all(y in a_final or y in b_final for y in range(width)):
        raise HypothesisViolation(
            "scripted sets cover every point below the horizon; no holes left"
        )
    a_bits, b_bits = bits_of(a_final), bits_of(b_final)
    for x in range(width):
        got = wtt_apply(gamma, a_bits, x, horizon)
        want = 1 if x in b_final else 0
        if got != want:
            raise HypothesisViolation(
                f"first operator disagrees with target at bit {x}"
                f" (got {got}, want {want})"
            )
        got = wtt_apply(delta, b_bits, x, horizon)
        want = 1 if x in a_final else 0
        if got != want:
            raise HypothesisViolation(
                f"second operator disagrees with target at bit {x}"
                f" (got {got}, want {want})"
            )
