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

Every decoder reads one fold, `agreement_windows`, which narrows Z's two
agreement windows on a block (the stages at which Z agrees with A_s, and
with the complement of B_s) to closed intervals, empty for a side that
never agrees, and can widen a block it returned: the recovery search
carries the windows of (m_n, x] along x. The blocks share the scenario's
`WttAgreementTable`, which holds what the search does not relearn per
block: the sets, operators, f and horizon, the candidate stages, the cover
stage of each f-interval and the operators' agreement rows. The case check
and the case-2 boundaries read one list of covered points, worked out once
per run from the final A and B (`covered_points`).
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from operator import itemgetter

from . import trace
from .enumcore import SeparatorSnapshot, StageSet, is_separator
from .errors import HypothesisViolation, UsageError
from .functionals import UseBound, UseBoundedOperator, bits_of, wtt_apply
from .records import Tail, bad_record, read_record, record_table
from .report import CheckResult, first_counterexample
from .scenario import PAST_HORIZON, no_rules, width_cap
from .trace import fmt_ints, fmt_opt, ints, parse_opt


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


def covered_points(union, f: UseBound):
    """The gap list and the covered points of a union, worked out once per
    run. gaps[y], for every y up to the bound table's largest value, is the
    least point >= y outside the union, one past that value when there is
    none; so (prev, x] holds a hole when gaps[prev + 1] <= x. covered lists,
    ascending, every x of f's domain whose interval (x, f(x)] lies inside
    the union, which is when gaps[x + 1] > f(x)."""
    top = max(f.table, default=0)
    gaps, nxt = [], top + 1
    for y in range(top, -1, -1):
        if y not in union:
            nxt = y
        gaps.append(nxt)
    gaps.reverse()
    return gaps, [x for x, fx in enumerate(f.table) if gaps[x + 1] > fx]


def classify_case(covered, horizon: int, declared: CaseTag) -> bool:
    """Consistency of the declared case with the covered points of the
    horizon snapshots (see `covered_points`).

    The true split is not decidable from finite data, so this only reports
    whether the snapshots contradict the declaration: case 1 with bound k is
    consistent when no covered x lies in [k, horizon); case 2 when at least
    ceil(horizon/10) covered points lie below the horizon.
    """
    below = bisect_left(covered, horizon)
    if declared.tag == 1:
        return bisect_left(covered, declared.k) >= below
    return below >= -(-horizon // 10)


def m_sequence(gaps, covered, count: int):
    """First `count` case-2 block boundaries, from the gap list and covered
    points of the final snapshots (see `covered_points`): -1, then each the
    least covered x with a hole in (last boundary, x]. Returns (values,
    missing), where missing is the first index no covered point given
    witnesses, None when there is none; the pipeline gives the covered
    points below the horizon.
    """
    if count <= 0:
        return [], None
    values = [-1]
    while len(values) < count:
        # the first hole past the last boundary is the least x to try
        i = bisect_left(covered, gaps[values[-1] + 1])
        if i == len(covered):
            return values, len(values)
        values.append(covered[i])
    return values, None


def encode_separator(c_mem, m_values, a_mem, b_mem) -> SeparatorSnapshot:
    """Write C into a separator string over [0, last boundary].

    Block n is (m_n, m_{n+1}]; inside C the block copies the complement of B,
    outside it copies A. Positions at or below the first boundary copy A.
    """
    if not m_values:
        raise ValueError("m-sequence too short")
    bits = []
    for y in range(m_values[-1] + 1):
        n = bisect_left(m_values, y) - 1  # block index with m_n < y <= m_{n+1}
        if y > m_values[0] and n in c_mem:
            bits.append("0" if y in b_mem else "1")
        else:
            bits.append("1" if y in a_mem else "0")
    return SeparatorSnapshot("".join(bits))


INF = float("inf")
# the windows of an empty block: Z agrees with either side at every stage
EVERY_STAGE = ((0, INF), (0, INF))


def agreement_windows(z, a: StageSet, b: StageSet, positions, windows=EVERY_STAGE):
    """The stages s at which Z agrees on a block with A_s, and those at which
    it agrees with the complement of B_s, as closed intervals (lo, hi), empty
    when lo > hi; a side that never agrees has lo = INF. Given the windows of
    a block, returns those of the block widened by `positions`."""
    (alo, ahi), (blo, bhi) = windows
    for y in positions:
        ta, tb = a.entry.get(y, INF), b.entry.get(y, INF)
        if z.bits[y] == "1":  # A_s holds y from ta on; B's complement before tb
            alo, bhi = max(alo, ta), min(bhi, tb - 1)
        else:
            ahi, blo = min(ahi, ta - 1), max(blo, tb)
    return (alo, ahi), (blo, bhi)


def agrees(windows, s: int) -> bool:
    """Whether Z agrees with A_s or with the complement of B_s on the block."""
    (alo, ahi), (blo, bhi) = windows
    return alo <= s <= ahi or blo <= s <= bhi


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
    raises "undecided at horizon". Either side's agreement changes only
    where a window opens or closes, so only those stages are tried.
    """
    (alo, ahi), (blo, bhi) = agreement_windows(z, a, b, range(m_n + 1, m_n1 + 1))
    for s in sorted({0, alo, ahi + 1, blo, bhi + 1}):
        if s > horizon:
            break
        ina = alo <= s <= ahi
        if ina != (blo <= s <= bhi):
            return (0 if ina else 1, s)
    raise ValueError("undecided at horizon")


def simultaneous_agreement_stages(z, a, b, m_n, m_n1, horizon):
    """Stages at which Z agrees with both sides on the block (empty when the
    block keeps a point out of A and B, which is the mutual-exclusion fact
    the decoder relies on)."""
    (alo, ahi), (blo, bhi) = agreement_windows(z, a, b, range(m_n + 1, m_n1 + 1))
    lo, hi = max(alo, blo), min(ahi, bhi, horizon)
    return range(lo, hi + 1) if lo <= hi else range(0)


def _row(windows, horizon):
    """An agreement row from its live windows (lo, hi, ok), each holding on
    [lo, hi): the stages up to the horizon at which its value changes, and
    its values. At stage t the first window that holds t gives the value,
    False when none does; with one window the row is read from it alone."""
    if len(windows) < 2:  # False, then ok on [lo, hi), then False
        lo, hi, ok = windows[0] if windows else (0, 0, False)
        if not ok:
            return [0], [False]
        stages, values = ([0], [True]) if lo == 0 else ([0, lo], [False, True])
        if hi <= horizon:
            stages.append(hi)
            values.append(False)
        return stages, values
    ends, stages, values = {0}, [], []
    for lo, hi, _ in windows:
        ends.update((lo, hi))
    for t in sorted(ends):
        if t > horizon:
            break
        value = next((ok for lo, hi, ok in windows if lo <= t < hi), False)
        if not values or value != values[-1]:
            stages.append(t)
            values.append(value)
    return stages, values


class WttAgreementTable:
    """Per-scenario cache, built by `Scenario.agreement_table`, for the
    recovery search and the case-2 audit: the scripted sets, the operators,
    f and the horizon it was built from; the sorted candidate stages up to
    the horizon (0, every entry stage of A and B and every rule
    availability); the cover stage of each x, worked out on first use; and
    for each input w, the stages at which the two operators both halt on the
    current-approximation oracle and match the final target sets. Sets and
    targets are read from the `entry` maps of A and B, whose elements all
    enter by the horizon, so the table takes no snapshot.

    A compiled rule for w holds on one stage window: from its availability,
    or the entry of its last 1-position if that is later, up to the first
    entry of a 0-position (empty when a 1-position never enters). At stage t
    the operator answers with the first rule, in `compiled_for` order, whose
    window holds t, so each row changes value only at window ends and is
    built from them without applying the operator; a row with one live
    window is read straight from it. A guard's part of the window is found
    once per distinct (mask, ones) and side."""

    def __init__(self, a: StageSet, b: StageSet, gamma, delta, f, horizon):
        self.a, self.b, self.f = a, b, f
        stages = {0, *a.entry.values(), *b.entry.values()}
        for op in (gamma, delta):
            stages.update(map(itemgetter(0), op.program.compiled_rows()))
        self.candidate_stages = sorted(t for t in stages if t <= horizon)
        self._covers: dict[int, int] = {}  # x -> cover_stage(x)
        self._prefixes: dict[int, int] = {}  # stage -> agree_prefix(stage)
        self.width = min(f.domain, horizon)

        def rows(op, entry, target):
            """Each input's row: the stages at which its value changes, and
            its values."""
            out, compiled_for = [], op.program.compiled_for
            guard_windows = {}  # (mask, ones) -> (lo, hi)
            for w in range(self.width):
                want, windows = int(w in target), []
                for available_at, _, mask, ones, output in compiled_for(w):
                    key = (mask, ones)
                    window = guard_windows.get(key)
                    if window is None:
                        lo, hi = 0, horizon + 1
                        while mask and lo < hi:
                            low = mask & -mask
                            mask ^= low
                            t = entry.get(low.bit_length() - 1)
                            if ones & low:
                                lo = hi if t is None else max(lo, t)
                            elif t is not None:
                                hi = min(hi, t)
                        window = guard_windows[key] = (lo, hi)
                    lo, hi = max(available_at, window[0]), window[1]
                    if lo < hi:
                        windows.append((lo, hi, output == want))
                out.append(_row(windows, horizon))
            return out

        self._gamma = rows(gamma, a.entry, b.entry)
        self._delta = rows(delta, b.entry, a.entry)

    def _ok(self, table, w, s):
        stages, values = table[w]
        i = bisect_right(stages, s) - 1
        return values[i] if i >= 0 else False

    def agree_prefix(self, s: int) -> int:
        """Largest X such that both operators match their targets on every
        input below X at stage s; worked out once per stage, since the
        table never changes."""
        w = self._prefixes.get(s)
        if w is None:
            w = 0
            while w < self.width and self._ok(self._gamma, w, s) and self._ok(
                self._delta, w, s
            ):
                w += 1
            self._prefixes[s] = w
        return w

    def cover_stage(self, x: int):
        """The least stage by which (x, f(x)] lies inside A ∪ B, INF when a
        point of it never enters; worked out once per x."""
        t = self._covers.get(x)
        if t is None:
            entry_a, entry_b = self.a.entry, self.b.entry
            t = self._covers[x] = max(
                min(entry_a.get(y, INF), entry_b.get(y, INF))
                for y in range(x + 1, self.f(x) + 1)
            )
        return t


def recover_m_next(z: SeparatorSnapshot, m_prefix, table: WttAgreementTable):
    """Recover the next block boundary from Z by the four-condition stage
    search, against the sets, operators and f the table was built from;
    returns (boundary, stage at which the search first succeeds).

    Conditions at stage s: every earlier block agrees with A_s or with the
    complement of B_s; every earlier boundary's f-interval is covered by
    stage s; and some x past the last known boundary has (i) both operators
    matching the final sets on all inputs up to x, (ii) block agreement on
    (last, x], (iii) a point of (last, x] outside the stage-s union, and
    (iv) (x, f(x)] inside the stage-s union. The least such x wins. Only
    the table's candidate stages are tried, from the first by which every
    earlier f-interval is covered.
    """
    a, b, f = table.a, table.b, table.f
    m_n = m_prefix[-1]
    earlier = [
        agreement_windows(z, a, b, range(lo + 1, hi + 1))
        for lo, hi in zip(m_prefix, m_prefix[1:])
    ]
    covered = max((table.cover_stage(m) for m in m_prefix[:-1] if m >= 0), default=0)
    # entry i: the stage by which (m_n, m_n + i] fills and its windows, each
    # carried from entry i - 1 when an x first reaches it
    reach = [(0, EVERY_STAGE)]
    stages = table.candidate_stages
    for s in stages[bisect_left(stages, covered) :]:
        prefix = min(f.domain, z.length, table.agree_prefix(s))
        if prefix <= m_n + 1 or not all(agrees(w, s) for w in earlier):
            continue
        for i, x in enumerate(range(m_n + 1, prefix), 1):
            if i == len(reach):
                filled, windows = reach[-1]
                filled = max(filled, min(a.entry.get(x, INF), b.entry.get(x, INF)))
                reach.append((filled, agreement_windows(z, a, b, (x,), windows)))
            filled, windows = reach[i]
            if s < filled and agrees(windows, s) and table.cover_stage(x) <= s:
                return (x, s)
    raise ValueError("not settled")


def audit_hypotheses(
    a: StageSet,
    b: StageSet,
    gamma: UseBoundedOperator,
    delta: UseBoundedOperator,
    f: UseBound,
    horizon: int,
    table: WttAgreementTable | None = None,
):
    """Pre-run audit: A and B disjoint, at least one point outside their
    union, and the operators compute each side from the other bit by bit on
    [0, horizon) at the horizon. Raises HypothesisViolation otherwise. Given
    the table of the same sets, operators, f and horizon, the inputs below
    its agree_prefix at the horizon pass unapplied (a row holds there
    exactly when wtt_apply gives the target), so wtt_apply names a failure."""
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
    start = 0 if table is None else table.agree_prefix(horizon)
    a_bits, b_bits = bits_of(a_final), bits_of(b_final)
    for x in range(start, width):
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


# ---------------------------------------------------------------------------
# scenario and trace hooks; the body is the outcome of
# trace.run_upclosure_pipeline

SET_NAMES = re.compile(r"[ABC]")
PROGRAM_NAMES = re.compile(r"gamma|delta")
FIRST_STAGE = 0
NOTE = "case declarations are certificates; only consistency is checked"
check_set = no_rules


def check_schema(sc):
    if sc.case is None:
        raise UsageError("upclosure scenarios declare their case")
    try:
        f = sc.use_bound()
    except ValueError as exc:
        raise UsageError(f"bound table: {exc}")
    if f.domain < sc.horizon:
        raise UsageError(f"bound table covers [0, {f.domain}), horizon {sc.horizon}")
    if f.table and max(f.table) > width_cap(sc.horizon):
        raise UsageError(f"bound table values exceed the horizon by {PAST_HORIZON}")
    for name in ("gamma", "delta"):
        try:
            sc.operator(name)
        except ValueError as exc:
            raise UsageError(f"operator {name}: {exc}")


def audit(sc):
    # case 1 builds no table, which would cost more than the walk it spares
    audit_hypotheses(
        sc.stage_set("A"),
        sc.stage_set("B"),
        sc.operator("gamma"),
        sc.operator("delta"),
        sc.use_bound(),
        sc.horizon,
        sc.agreement_table() if sc.case.tag == 2 else None,
    )


def fresh(sc):
    # through the module attribute, which the benchmark's tracer rebinds
    out = trace.run_upclosure_pipeline(sc)
    return out, out


def encode(out) -> list[str]:
    return [
        f"caseok {'true' if out['consistent'] else 'false'}",
        f"mseq {fmt_ints(out['m_values'])}",
        f"mseq-missing {fmt_opt(out['m_missing'])}",
        f"z {'-' if out['z'] is None else out['z'].bits}",
        *(f"block {fmt_ints(blk)}" for blk in out["blocks"]),
        *(f"recover {fmt_ints(rec)}" for rec in out["recovered"]),
    ]


def _truth(tok):
    if tok not in ("true", "false"):
        raise ValueError("expected true or false")
    return tok == "true"


# the types of each record's tokens after its kind
RECORDS = record_table({
    "caseok": (_truth,),
    "mseq": (Tail(ints),),
    "mseq-missing": (parse_opt,),
    "z": (lambda tok: None if tok == "-" else SeparatorSnapshot(tok),),
    "block": (int, int, int, int),
    "recover": (int, int, int, int),
})
# the pipeline output that each record but a block or recover record sets,
# z's under its own name
_SLOTS = {"caseok": "consistent", "mseq": "m_values", "mseq-missing": "m_missing"}


def decode(body, horizon):
    """The pipeline output from the body, each record read by RECORDS. A
    block carries an mseq index, a bit, a stage in 0..horizon and a bit; a
    recover record an mseq index, a boundary, a stage in 0..horizon and a
    boundary. caseok, mseq, mseq-missing and z appear at most once; anything
    else is a UsageError naming the record."""
    out = {
        "consistent": None,
        "m_values": [],
        "m_missing": None,
        "z": None,
        "blocks": [],
        "recovered": [],
    }
    seen = set()
    indexed = []  # (record, index) of every block and recover record
    for parts in body:
        kind = parts[0]
        if kind in seen:
            raise bad_record(parts, f"a second {kind} record")
        if kind not in ("block", "recover"):
            seen.add(kind)
        try:
            fields = read_record(parts, RECORDS)
            if fields is None:
                raise UsageError(f"unknown record {kind} in trace body")
            if kind not in ("block", "recover"):
                out[_SLOTS.get(kind, kind)] = fields if kind == "mseq" else fields[0]
            elif not 0 <= fields[2] <= horizon:
                raise ValueError(f"stage outside 0..{horizon}")
            elif kind == "block" and not {fields[1], fields[3]} <= {0, 1}:
                raise ValueError("block bits must be 0 or 1")
            else:
                indexed.append((parts, fields[0]))
                out["blocks" if kind == "block" else "recovered"].append(tuple(fields))
        except ValueError as exc:
            raise bad_record(parts, exc)
    for parts, n in indexed:
        if not 0 <= n < len(out["m_values"]):
            raise bad_record(parts, f"no mseq position {n}")
    return out


def check(sc, _run, recorded, detail):
    values = recorded["m_values"]
    steps = enumerate(zip(values, values[1:]))
    checks = [
        first_counterexample(
            "mseq-monotone",
            [(n, u, n + 1, v) for n, (u, v) in steps if u >= v],
            "boundary {2} = {3} is not above boundary {0} = {1}",
        ),
        CheckResult("pipeline-exactness", not detail, detail or ""),
    ]

    a, b = sc.stage_set("A"), sc.stage_set("B")
    z = recorded["z"]
    if z is not None:
        dom_a = {e for e in a.final() if e < z.length}
        dom_b = {e for e in b.final() if e < z.length}
        wrong = []
        if not is_separator(z, dom_a, dom_b):
            wrong = sorted(
                [(p, 0, "A") for p in dom_a if z[p] == 0]
                + [(p, 1, "B") for p in dom_b if z[p] == 1]
            )
        checks.append(
            first_counterexample(
                "separator-property", wrong, "position {0} reads {1} on a member of {2}"
            )
        )
        viol = []
        for n in range(len(values) - 1):
            if values[n + 1] >= z.length:
                break
            stages = simultaneous_agreement_stages(
                z, a, b, values[n], values[n + 1], sc.horizon
            )
            if len(stages) > 0:
                viol.append((n, stages[0]))
                break
        checks.append(
            first_counterexample(
                "mutual-exclusion",
                viol,
                "block {0} agrees with both sides at stage {1}",
            )
        )
    checks.append(
        first_counterexample(
            "roundtrip-decode",
            [blk for blk in recorded["blocks"] if blk[1] != blk[3]],
            "block {0} decoded {1}, target holds {3}",
        )
    )
    checks.append(
        first_counterexample(
            "boundary-recovery",
            [r for r in recorded["recovered"] if r[1] != r[3]],
            "recovered boundary {0} as {1}, direct value {3}",
        )
    )
    caveats = []
    if recorded["m_missing"] is not None:
        caveats.append(
            f"boundary {recorded['m_missing']} not witnessed below the horizon"
        )
    caveats.append(
        "case declaration checked for consistency only; the true split is"
        " not decidable from finite data"
    )
    return checks, caveats
