"""Finite-injury construction of disjoint c.e. sets A, B and auxiliary D.

Two families of strategies run under a priority scheduler:

* preservation strategies (one per k) freeze a number out of A and B by
  restraining everything below the current stage once the stage passes k;
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
change only when some strategy acts, which bumps the run's epoch and
reschedules every diagonalization strategy; a search keyed to one epoch and
one claimed n therefore sees fixed A, B and D, all of A and B below the
stage, and a growing set of usable rules, so it keeps failing until a new
usable rule appears. Guard positions lie below the use, so they need no wake
of their own.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter

from .enumcore import FreshSource, StageSet
from .functionals import EMPTY_PROGRAM, OracleProgram, bits_of, evaluate
from .report import CheckResult, first_counterexample


class NStrategyState:
    __slots__ = ("k", "satisfied_at", "restraint")

    def __init__(self, k: int, satisfied_at: int | None = None, restraint: int = 0):
        self.k = k
        self.satisfied_at = satisfied_at
        self.restraint = restraint


class RStrategyState:
    __slots__ = ("e", "restraint", "claimed_n", "memo_epoch", "memo_n", "memo_wake")

    def __init__(self, e: int, restraint: int = 0):
        self.e = e
        self.restraint = restraint  # stage as of which it was last initialized
        self.claimed_n: int | None = None
        self.memo_epoch = -1
        self.memo_n = -1
        self.memo_wake = 0


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
    """
    if n >= prog.contiguous_cover:
        return None, None
    forced: dict[int, int] = {}
    for x in a_mem:
        if x < s:
            forced[x] = 1
    for x in b_mem:
        if x < s:
            forced[x] = 0

    # Candidate guards per needed input, filtered by required output,
    # compatibility with the forced bits, availability and width; the rules
    # that only fail the last two set the wake.
    constraints: list[list[tuple[tuple[int, int], ...]]] = []
    wake = None
    for y in range(n + 1):
        want = 1 if y in d_mem else 0
        cands = []
        y_wake = None
        satisfied = False
        for r in prog.rules_for(y):
            if r.output != want:
                continue
            ok = True
            fully_forced = True
            for p, b in r.guard:
                v = forced.get(p)
                if v is None:
                    fully_forced = False
                elif v != b:
                    ok = False
                    break
            if not ok:
                continue
            ready = max(r.available_at, r.use)
            if ready > s:
                if y_wake is None or ready < y_wake:
                    y_wake = ready
                continue
            if fully_forced:
                satisfied = True
                break
            cands.append(r.guard)
        if satisfied:
            continue
        if not cands:
            return None, y_wake
        if y_wake is not None and (wake is None or y_wake < wake):
            wake = y_wake
        constraints.append(cands)

    assigned: dict[int, int] = {}

    def value(p):
        v = forced.get(p)
        return assigned.get(p) if v is None else v

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
            satisfied = False
            for g in constraints[ci]:
                ok = True
                full = True
                for p, b in g:
                    v = value(p)
                    if v is None:
                        full = False
                    elif v != b:
                        ok = False
                        break
                if not ok:
                    continue
                if full:
                    satisfied = True
                    break
                cands.append(g)
            if satisfied:
                live[ci] = False
                continue
            if not cands:
                return None, wake
            constraints[ci] = cands
            if len(cands) == 1:
                for p, b in cands[0]:
                    if value(p) is None:
                        assigned[p] = b
                        fresh_bits = True
                live[ci] = False
            else:
                next_queue.append(ci)
        queue = next_queue if fresh_bits else []

    remaining = [constraints[ci] for ci in range(len(constraints)) if live[ci]]

    if remaining:
        # Solve independent components with lexicographic backtracking.
        pos_of = [sorted({p for g in cs for p, _ in g if value(p) is None}) for cs in remaining]
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(x, y):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry

        for ps in pos_of:
            for p in ps:
                parent.setdefault(p, p)
            for p in ps[1:]:
                union(ps[0], p)
        comp_cons: dict[int, list[int]] = {}
        for i, ps in enumerate(pos_of):
            root = find(ps[0])
            comp_cons.setdefault(root, []).append(i)
        for root in sorted(comp_cons):
            idxs = comp_cons[root]
            positions = sorted({p for i in idxs for p in pos_of[i]})
            cons = [remaining[i] for i in idxs]

            def feasible():
                for cs in cons:
                    ok = False
                    for g in cs:
                        good = True
                        for p, b in g:
                            v = value(p)
                            if v is not None and v != b:
                                good = False
                                break
                        if good:
                            ok = True
                            break
                    if not ok:
                        return False
                return True

            def dfs(i):
                if i == len(positions):
                    return feasible()
                p = positions[i]
                if value(p) is not None:
                    return feasible() and dfs(i + 1)
                for bit in (0, 1):
                    assigned[p] = bit
                    if feasible() and dfs(i + 1):
                        return True
                    del assigned[p]
                return False

            if not dfs(0):
                return None, wake

    bits = ["0"] * s
    for p, b in forced.items():
        bits[p] = "01"[b]
    for p, b in assigned.items():
        bits[p] = "01"[b]
    sigma = "".join(bits)

    # Honest re-check through the evaluator.
    sigma_bits = bits_of(p for p, c in enumerate(sigma) if c == "1")
    for y in range(n + 1):
        want = 1 if y in d_mem else 0
        res = evaluate(prog, sigma_bits, s, y, s)
        if res is None or res[0] != want:
            raise AssertionError("sigma search produced a non-witness")
    return sigma, None


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
# strategy steps (shared by the reference and the event-driven runner)


def n_strategy_step(st: NStrategyState, s: int, run: "AnticompleteRun") -> bool:
    """Acts (once per initialization) at the first stage s > k, restraining
    everything at or below s by imposing restraint s + 1."""
    if st.satisfied_at is None and s > st.k:
        st.satisfied_at = s
        st.restraint = s + 1
        run._emit(("nact", s, st.k, s + 1))
        return True
    return False


def r_strategy_step(
    st: RStrategyState, s: int, run: "AnticompleteRun", use_memo: bool
) -> bool:
    """One loop iteration: claim a fresh number if none is claimed, then
    search for sigma; on success copy the tail into A/B above the restraint,
    put the claimed number into D, and return to the claiming phase."""
    prog = run.programs.get(st.e, EMPTY_PROGRAM)
    if st.claimed_n is None:
        n = run.fresh.fresh()
        st.claimed_n = n
        run._emit(("rclaim", s, st.e, n))
    if len(prog) == 0:
        return False
    if (
        use_memo
        and st.memo_epoch == run.epoch
        and st.memo_n == st.claimed_n
        and s < st.memo_wake
    ):
        return False
    sigma, wake = sigma_search(
        prog, st.claimed_n, s, run.a.entry, run.b.entry, run.d.entry
    )
    if sigma is None:
        st.memo_epoch = run.epoch
        st.memo_n = st.claimed_n
        st.memo_wake = run.horizon + 1 if wake is None else wake
        if use_memo and st.memo_wake <= run.horizon:
            run._schedule(st.memo_wake, 2 * st.e + 1)
        return False
    m, new_a, new_b = apply_sigma(sigma, st.restraint, run.a.entry, run.b.entry)
    for x in new_a:
        run.a.add(x, s + 1)
    for x in new_b:
        run.b.add(x, s + 1)
    run.d.add(st.claimed_n, s + 1)
    run._emit(("ract", s, st.e, st.claimed_n, st.restraint, m, new_a, new_b))
    run.epoch += 1
    if use_memo:
        for e in run.scripted:
            run._schedule(s + 1, 2 * e + 1)
    st.claimed_n = None
    return True


# ---------------------------------------------------------------------------
# the scheduler


class AnticompleteRun:
    """Priority scheduler over the interleaved strategy list.

    run_stage() is the reference stepper: at stage s it steps every strategy
    with index < s in priority order. run_to_horizon() steps the event-driven
    equivalent, which skips strategies whose step is provably a no-op; the
    two produce identical traces (tested).
    """

    def __init__(self, programs: dict[int, OracleProgram], horizon: int):
        self.programs = dict(programs)
        self.horizon = horizon
        self.a = StageSet(horizon=horizon)
        self.b = StageSet(horizon=horizon)
        self.d = StageSet(horizon=horizon)
        self.fresh = FreshSource()
        self.records: list[tuple] = []
        self.epoch = 0
        self.stage = 0
        self.nstates: list[NStrategyState] = []
        self.rstates: list[RStrategyState] = []
        self.scripted = sorted(e for e, p in self.programs.items() if len(p) > 0)
        self._pending: dict[int, list[int]] = {}
        self._last_act_stage = -1

    # -- plumbing

    def _emit(self, record: tuple):
        self.records.append(record)
        for v in record[1:]:
            if isinstance(v, int):
                self.fresh.note(v)
            elif isinstance(v, tuple):
                self.fresh.note(*v)

    def _schedule(self, stage: int, idx: int):
        if stage <= self.horizon:
            bucket = self._pending.setdefault(stage, [])
            if idx not in bucket:
                insort(bucket, idx)

    def _materialize(self, idx: int):
        base = self._last_act_stage + 1
        while 2 * len(self.nstates) <= idx:
            self.nstates.append(NStrategyState(k=len(self.nstates)))
        while 2 * len(self.rstates) + 1 <= idx:
            self.rstates.append(
                RStrategyState(e=len(self.rstates), restraint=base)
            )

    def _reset(self, idx: int, s: int):
        if idx % 2 == 0:
            st = self.nstates[idx // 2]
            st.satisfied_at = None
            st.restraint = 0
        else:
            st = self.rstates[idx // 2]
            st.restraint = s + 1
            st.claimed_n = None
            st.memo_epoch = -1

    def _visit(self, idx: int, s: int, reset: bool, use_memo: bool) -> bool:
        self._materialize(idx)
        if reset:
            self._reset(idx, s)
        if idx % 2 == 0:
            acted = n_strategy_step(self.nstates[idx // 2], s, self)
        else:
            acted = r_strategy_step(self.rstates[idx // 2], s, self, use_memo)
        if acted:
            self._last_act_stage = s
        return acted

    # -- steppers

    def run_stage(self):
        """Reference semantics: step every strategy with index < s."""
        s = self.stage
        floor = None
        for idx in range(s):
            acted = self._visit(idx, s, reset=(floor is not None), use_memo=False)
            if acted and floor is None:
                floor = idx
        self.stage = s + 1

    def _run_stage_fast(self):
        s = self.stage
        pend = self._pending.pop(s, [])
        if s >= 1 and (s - 1) not in pend:
            insort(pend, s - 1)
        floor = None
        cur = -1
        i = 0
        while True:
            if floor is None:
                if i >= len(pend):
                    break
                idx = pend[i]
                i += 1
                if idx <= cur or idx >= s:
                    continue
            else:
                idx = cur + 1
                if idx >= s:
                    break
            cur = idx
            acted = self._visit(idx, s, reset=(floor is not None), use_memo=True)
            if acted and floor is None:
                floor = idx
        self.stage = s + 1

    def run_to_horizon(self):
        while self.stage < self.horizon:
            self._run_stage_fast()
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
