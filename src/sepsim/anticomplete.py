"""Finite-injury construction of disjoint c.e. sets A, B and auxiliary D.

Two families of strategies run under a priority scheduler:

* preservation strategies (one per k) act once per initialization, at the
  first stage s past k, and freeze s out of A and B by imposing restraint
  s + 1 on every strategy after them. The scheduler steps one only at that
  stage, so a step is its act and it keeps no state;
* diagonalization strategies (one per functional index e) repeatedly claim a
  fresh number n, hunt for a full-width oracle string sigma compatible with
  the current A/B whose functional output matches D up to n, copy the tail of
  sigma into A/B above their restraint, and put n into D.

Every B entry is accompanied by a smaller same-stage A entry, which is the
whole point of the construction. Strategies are interleaved in priority order
(preservation 0, diagonalization 0, preservation 1, ...) and at stage s the
first s of them run; whoever acts re-initializes everything below itself.

Enumerations performed at stage s are stamped s+1 and are always < s.

A failed sigma search is retried only at its wake (see sigma_search): the
least stage at which a rule that could lift the failure becomes usable, that
is, has the output D wants, a guard consistent with A and B, and
max(available_at, use) at most the stage. The wake is exact. A, B and D
change only when some strategy acts, and an act sets the wake of every
scripted diagonalization strategy to 0; a claim changes only at an act or a
reset, after which the strategy searches at once. Between two acts a search
for one claimed n therefore sees fixed A, B and D, all of A and B below the
stage, and a growing set of usable rules, so it keeps failing until a new
usable rule appears. Guard positions lie below the use, so they need no wake
of their own.
"""

from __future__ import annotations

import re
from collections import Counter

from .enumcore import StageSet
from .functionals import OracleProgram, bits_of, evaluate
from .report import CheckResult, first_counterexample
from .scenario import INDEX, no_rules
from .trace import decode_event_log, encode_event_log


class RStrategyState:
    __slots__ = ("e", "restraint", "claimed_n", "wake")

    def __init__(self, e: int, restraint: int = 0):
        self.e = e
        self.restraint = restraint  # stage as of which it was last initialized
        self.claimed_n: int | None = None
        self.wake = 0  # the stage from which it needs another look


# ---------------------------------------------------------------------------
# sigma search


def sigma_search(prog: OracleProgram, n: int, s: int, a_mem, b_mem, d_mem):
    """Least sigma in {0,1}^s (lexicographic, 0 before 1) such that

    * the functional halts on every y <= n with output matching D at y, and
    * sigma is 1 on A-members and 0 on B-members below s.

    Returns (sigma, None) with sigma a bit string, or (None, wake) when no
    such sigma exists at stage s. The search works on the finitely many
    positions rule guards mention; every other position is unconstrained and
    therefore 0 in the least solution.

    A rule for y is usable at s when it has the output D wants at y, a guard
    consistent with the forced A/B bits, and max(available_at, use) <= s.
    The search outcome depends only on the usable rules, so with the same
    A, B, D and n (all of A and B below s), it keeps failing until the wake:
    the least max(available_at, use) > s of a rule that could lift the
    failure. That is a rule for the first input with no usable rule when
    there is one, else a rule for any input not already satisfied by the
    forced bits. The wake is None when no rule could lift the failure.

    Bits are ints, as the compiled guards are: `known` holds the positions
    with a value, `ones` those whose value is 1, and a guard (mask, want) is
    consistent with them when (want ^ ones) & mask & known is 0 and fully
    decided when mask & known == mask.
    """
    if n >= prog.contiguous_cover:
        return None, None
    zeros = bits_of(x for x in b_mem if x < s)
    ones = bits_of(x for x in a_mem if x < s) & ~zeros
    known = ones | zeros

    # Candidate guards per needed input, filtered by required output,
    # compatibility with the forced bits, availability and width; the rules
    # that only fail the last two set the wake.
    constraints: list[list[tuple[int, int]]] = []
    wake = None
    compiled_for = prog.compiled_for
    for y in range(n + 1):
        out = 1 if y in d_mem else 0
        cands = []
        y_wake = None
        for available_at, use, mask, want, output in compiled_for(y):
            if output != out or (want ^ ones) & mask & known:
                continue
            ready = use if use > available_at else available_at
            if ready > s:
                if y_wake is None or ready < y_wake:
                    y_wake = ready
                continue
            if mask & known == mask:
                break  # satisfied by the forced bits
            cands.append((mask, want))
        else:
            if not cands:
                return None, y_wake
            if y_wake is not None and (wake is None or y_wake < wake):
                wake = y_wake
            constraints.append(cands)

    # Unit propagation: a constraint with a single candidate pins its guard.
    queue = list(range(len(constraints)))
    live = [True] * len(constraints)
    while queue:
        fresh_bits = False
        next_queue = []
        for ci in queue:
            if not live[ci]:
                continue
            cands = []
            for mask, want in constraints[ci]:
                if (want ^ ones) & mask & known:
                    continue
                if mask & known == mask:
                    live[ci] = False
                    break
                cands.append((mask, want))
            else:
                if not cands:
                    return None, wake
                constraints[ci] = cands
                if len(cands) == 1:
                    mask, want = cands[0]
                    known |= mask
                    ones |= want
                    fresh_bits = True
                    live[ci] = False
                else:
                    next_queue.append(ci)
        queue = next_queue if fresh_bits else []

    # Solve independent components (constraints linked through their free
    # positions) with lexicographic backtracking, least position first.
    components: list[tuple[int, list]] = []  # (free positions, constraints)
    for ci, cands in enumerate(constraints):
        if not live[ci]:
            continue
        free = 0
        for mask, _ in cands:
            free |= mask & ~known
        group = [cands]
        for comp in [c for c in components if c[0] & free]:
            components.remove(comp)
            free |= comp[0]
            group += comp[1]
        components.append((free, group))
    for free, group in components:
        positions = [p for p in range(free.bit_length()) if free >> p & 1]
        solved = _least_solution(group, positions, 0, known, ones)
        if solved is None:
            return None, wake
        known, ones = solved

    sigma = format(ones | 1 << s, "b")[:0:-1]  # position p is character p

    # Honest re-check through the evaluator.
    for y in range(n + 1):
        res = evaluate(prog, ones, s, y, s)
        if res is None or res[0] != (1 if y in d_mem else 0):
            raise AssertionError("sigma search produced a non-witness")
    return sigma, None


def _least_solution(group, positions, i, known, ones):
    """(known, ones) extended over positions[i:], 0 before 1, so that every
    constraint of the group keeps a consistent candidate; None when no
    extension does."""
    for cands in group:
        for mask, want in cands:
            if not (want ^ ones) & mask & known:
                break
        else:
            return None
    if i == len(positions):
        return known, ones
    bit = 1 << positions[i]
    for value in (0, bit):
        solved = _least_solution(group, positions, i + 1, known | bit, ones | value)
        if solved:
            return solved
    return None


def apply_sigma(sigma: str, r: int, a_mem, b_mem):
    """Execute the copy step for a found sigma.

    Picks the least m >= r with sigma(m) = 1 and m not yet in A; when it
    exists, every position in [m, len(sigma)) joins A (bit 1) or B (bit 0)
    unless already present. Returns (m, new_a, new_b); m is None when no
    position qualifies, in which case nothing is enumerated.
    """
    m = None
    for x in range(r, len(sigma)):
        if sigma[x] == "1" and x not in a_mem:
            m = x
            break
    if m is None:
        return None, (), ()
    new_a, new_b = [], []
    for x in range(m, len(sigma)):
        if sigma[x] == "1":
            if x not in a_mem:
                new_a.append(x)
        else:
            if x not in b_mem:
                new_b.append(x)
    return m, tuple(new_a), tuple(new_b)


# ---------------------------------------------------------------------------
# the diagonalization step
#
# Each record raises the run's top, the largest number recorded so far, to
# its largest field: the stage s, or a restraint or claim above it. A
# strategy's index and every position of a sigma lie below s.


def r_strategy_step(st: RStrategyState, s: int, run: "AnticompleteRun") -> bool:
    """One loop iteration: claim a fresh number if none is claimed, then
    search for sigma; on success copy the tail into A/B above the restraint,
    put the claimed number into D, and return to the claiming phase. A
    failed search sets the strategy's wake; an act sets every scripted
    strategy's wake to 0."""
    prog = run.programs.get(st.e)
    if st.claimed_n is None:
        n = st.claimed_n = run.top + 1
        run._emit(("rclaim", s, st.e, n), max(s, n))
    if prog is None:
        return False
    sigma, wake = sigma_search(
        prog, st.claimed_n, s, run.a.entry, run.b.entry, run.d.entry
    )
    if sigma is None:
        st.wake = run.horizon + 1 if wake is None else wake
        return False
    m, new_a, new_b = apply_sigma(sigma, st.restraint, run.a.entry, run.b.entry)
    for x in new_a:
        run.a.add(x, s + 1)
    for x in new_b:
        run.b.add(x, s + 1)
    run.d.add(st.claimed_n, s + 1)
    record = ("ract", s, st.e, st.claimed_n, st.restraint, m, new_a, new_b)
    run._emit(record, max(s, st.claimed_n, st.restraint))
    for other in run.scripted:
        other.wake = 0
    st.claimed_n = None
    return True


# ---------------------------------------------------------------------------
# the scheduler


class AnticompleteRun:
    """Event-driven priority scheduler over the interleaved strategy list.

    At stage s, run_stage() steps, in index order until one acts, each
    scripted diagonalization strategy below s - 1 whose wake is at most s,
    then strategy s - 1 (new at s); once one acts, it re-initializes and
    steps every strategy below s after it; every other step is provably a
    no-op. A preservation strategy is thus stepped only when new or just
    re-initialized, and always past its k, so each step is its one act. The
    reference stepper, which steps every strategy with index < s, lives with
    the tests; the two produce identical traces.
    """

    def __init__(self, programs: dict[int, OracleProgram], horizon: int):
        # the programs with rules; a strategy without one never searches
        self.programs = {e: p for e, p in programs.items() if len(p) > 0}
        self.horizon = horizon
        self.a = StageSet(horizon=horizon)
        self.b = StageSet(horizon=horizon)
        self.d = StageSet(horizon=horizon)
        self.top = -1  # the largest number recorded so far; a claim is top + 1
        self.records: list[tuple] = []
        self.stage = 0
        self.rstates: list[RStrategyState] = []
        # the diagonalization strategies built so far that have a program
        self.scripted: list[RStrategyState] = []
        self._last_act_stage = -1

    def _emit(self, record: tuple, top: int):
        """Record an event whose largest field is top."""
        self.records.append(record)
        if top > self.top:
            self.top = top

    def _visit(self, idx: int, s: int, reset: bool) -> bool:
        if idx % 2 == 0:
            self._emit(("nact", s, idx // 2, s + 1), s + 1)
        else:
            st = self.rstates[idx // 2]
            if reset:
                st.restraint = s + 1
                st.claimed_n = None
            if not r_strategy_step(st, s, self):
                return False
        self._last_act_stage = s
        return True

    def run_stage(self):
        s = self.stage
        self.stage = s + 1
        if s == 0:
            return
        if s % 2 == 0:  # strategy s - 1 is new at s
            st = RStrategyState(e=s // 2 - 1, restraint=self._last_act_stage + 1)
            self.rstates.append(st)
            if st.e in self.programs:
                self.scripted.append(st)
        for st in self.scripted:
            idx = 2 * st.e + 1
            if st.wake <= s and idx < s - 1 and self._visit(idx, s, reset=False):
                break
        else:
            idx = s - 1
            if not self._visit(idx, s, reset=False):
                return
        for later in range(idx + 1, s):
            self._visit(later, s, reset=True)

    def run_to_horizon(self):
        while self.stage < self.horizon:
            self.run_stage()
        return self


def run_anticomplete(programs: dict[int, OracleProgram], horizon: int):
    return AnticompleteRun(programs, horizon).run_to_horizon()


# ---------------------------------------------------------------------------
# trace verification


def _unmatched(final, acted, name):
    """(element, stage, side) for each entry that a final event log and the
    recorded acts' entries hold a different number of times, least first."""
    got, want = Counter(final), Counter(acted)
    return sorted(
        [(e, t, f"in final {name} without a recorded act") for e, t in got - want]
        + [(e, t, f"from a recorded act, not in final {name}") for e, t in want - got]
    )


def verify_anticomplete(records, a_events, b_events, d_events, horizon):
    """Invariant suite over a finished run's records and final event logs.

    Returns (checks, caveats). Works purely on the recorded data; nothing is
    re-run.
    """
    checks: list[CheckResult] = []
    caveats: list[str] = []

    acts = []  # (stage, idx) in record order
    racts = []
    nacts = []
    claims = []
    for rec in records:
        if rec[0] == "nact":
            _, s, k, restraint = rec
            acts.append((s, 2 * k))
            nacts.append((s, k, restraint))
        elif rec[0] == "ract":
            _, s, e, n, r, m, new_a, new_b = rec
            acts.append((s, 2 * e + 1))
            racts.append((s, e, n, r, m, new_a, new_b))
        elif rec[0] == "rclaim":
            claims.append((rec[1], rec[2], rec[3]))

    # (i) every B entry has a smaller same-stage A entry
    checks.append(
        first_counterexample(
            "wtt-companion",
            [
                (s + 1, e, x)
                for s, e, n, r, m, new_a, new_b in racts
                for x in new_b
                if not any(y < x for y in new_a)
            ],
            "stage {0} strategy r{1} element {2}",
        )
    )

    # (ii) no strategy enumerates below its restraint; recorded restraint
    # matches the one implied by the act history.
    viol = []
    for s, e, n, r, m, new_a, new_b in racts:
        idx = 2 * e + 1
        implied = 0
        for t, aidx in acts:
            if t > s or (t == s and aidx >= idx):
                break
            if aidx < idx:
                implied = max(implied, t + 1)
        low = [x for x in (*new_a, *new_b) if x < r]
        if m is not None and m < r:
            low.append(m)
        if r != implied:
            viol.append((s, e, f"recorded restraint {r} != {implied}"))
        elif low:
            viol.append((s, e, f"element {min(low)} below restraint {r}"))
    checks.append(
        first_counterexample(
            "restraint-discipline", viol, "stage {0} strategy r{1} {2}"
        )
    )

    # (iii) A and B disjoint
    a_set = {e for e, _ in a_events}
    b_set = {e for e, _ in b_events}
    inter = sorted((x,) for x in a_set & b_set)
    checks.append(first_counterexample("disjoint-ab", inter, "element {0}"))

    # (iv) entries at stage s+1 are smaller than s
    checks.append(
        first_counterexample(
            "entry-bound",
            [(e, t) for e, t in sorted(a_events) + sorted(b_events) if e >= t - 1],
            "element {0} entered at stage {1}",
        )
    )

    # N preservation: an n-strategy acting at stage s and never initialized
    # afterward keeps s out of A and B.
    # later_min[act]: the least strategy index among the acts that follow act
    # in (stage, index) order
    later_min: dict[tuple[int, int], float] = {}
    least = float("inf")
    for act in sorted(acts, reverse=True):
        later_min.setdefault(act, least)
        least = min(least, act[1])
    union = a_set | b_set
    viol = []
    for s, k, restraint in nacts:
        initialized_later = later_min[(s, 2 * k)] < 2 * k
        if not initialized_later and s in union:
            viol.append((k, s))
    checks.append(
        first_counterexample(
            "n-preservation", viol, "n{0} acted at stage {1} but {1} entered A or B"
        )
    )

    # Claims strictly increase across the whole run.
    previous = [-1] + [n for _, _, n in claims]
    checks.append(
        first_counterexample(
            "claim-freshness",
            [(n, s, p) for (s, e, n), p in zip(claims, previous) if n <= p],
            "claim {0} at stage {1} not above previous {2}",
        )
    )

    # D bookkeeping: every D entry is produced by exactly one recorded act.
    d_from_racts = [(n, s + 1) for s, e, n, r, m, na, nb in racts]
    checks.append(
        first_counterexample(
            "d-entries-have-acts",
            _unmatched(d_events, d_from_racts, "D"),
            "element {0} at stage {1} {2}",
        )
    )

    # A/B bookkeeping: final logs match recorded enumerations.
    a_acted = [(x, s + 1) for s, e, n, r, m, na, nb in racts for x in na]
    b_acted = [(x, s + 1) for s, e, n, r, m, na, nb in racts for x in nb]
    checks.append(
        first_counterexample(
            "records-consistent",
            _unmatched(a_events, a_acted, "A") + _unmatched(b_events, b_acted, "B"),
            "element {0} at stage {1} {2}",
        )
    )

    # Per-strategy D counts, with a stability note over the final fifth.
    window = max(1, horizon // 5)
    cutoff = horizon - window
    per = Counter(e for s, e, *_ in racts)
    late = Counter(e for s, e, *_ in racts if s >= cutoff)
    for e in sorted(per):
        caveats.append(
            f"strategy r{e} enumerated {per[e]} numbers into D"
            f" ({late[e]} in the final {window} stages);"
            " finiteness beyond the horizon is not decidable"
        )

    return checks, caveats


# ---------------------------------------------------------------------------
# scenario and trace hooks; the body is (records, {"A", "B", "D": final
# events}) in the shared event-log codec

SET_NAMES = None
PROGRAM_NAMES = re.compile("phi" + INDEX)
FIRST_STAGE = 0
NOTE = "fresh numbers exceed every number recorded so far"
check_set = check_schema = audit = no_rules


def fresh(sc):
    run = run_anticomplete(sc.programs_by_index(), sc.horizon)
    finals = {"A": run.a.events, "B": run.b.events, "D": run.d.events}
    return run, (run.records, finals)


encode = encode_event_log


def decode(body, horizon):
    return decode_event_log(body, ("nact", "rclaim", "ract"), "ABD", horizon)


def check(sc, _run, log, detail):
    records, finals = log
    checks, caveats = verify_anticomplete(
        records, finals["A"], finals["B"], finals["D"], sc.horizon
    )
    return [CheckResult("run-exactness", not detail, detail or ""), *checks], caveats
