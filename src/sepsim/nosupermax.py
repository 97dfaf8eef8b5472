"""Three-attempt construction of a separator that is no finite variant of
either side, against adversarial scripted enumerations.

Each attempt maintains, per stage, a strictly increasing boundary sequence
ending at the previous stage number. Consecutive boundary entries cut the
line into intervals that alternate direction: on intervals whose right
endpoint has odd index the attempt pulls permitted numbers into its set X,
on even intervals it pushes them out. A number is permitted once it sits
outside the scripted sets and either equals the previous stage or sees a
smaller number freshly enter the scripted sets on the wrong side of X.

A failed attempt (one boundary entry resetting forever) is consumed through
a speedup certificate: the enumerations are re-indexed to the subsequence of
stages on which the settled prefix, the live entry, and the zone condition
all hold, and the next attempt starts its boundary at the last settled value.

Stage convention: scripted events carry stamps >= 1; the update for stage
s+1 ingests events stamped s+1 first, recomputes the boundary, then updates
X. X starts empty at stage 0. The boundary reset clause compares the old
next entry against the new current one exactly as stated, mixed stage
indices and all.

A stage costs what its events and the boundary's witness-free intervals
cost, not the stage number:
- A quiet stage has no events, a witness in every interval and base < s.
  An entry survives only through a witness or a crossing, so it keeps every
  entry and gains s. It opens the interval (s-1, s] and moves at most s into
  X, with no boundary walk and no X update.
- The fresh crossings of a stage enter only through m, the least of them:
  a number y is permitted by a crossing exactly when y > m.
- Each boundary interval keeps counts of its numbers outside A and B,
  inside and outside X, plus the sorted lists of the intervals with none on
  their own side and of those with some on the wrong side. Events, X
  toggles and resets update these, so the boundary walk looks only at
  witness-free intervals.
- After every stage A is inside X and B outside it, since the A and B rules
  fire first and nothing else moves an A member, and X holds no number above
  the stage but members of A. So a stage with no crossing at or below s
  (m > s, base < s) keeps just the entries below its first witness-free
  interval, and only s and its own crossings, A events outside X, can
  move: one lookup per rule, with no boundary walk and no X update.
- The X update of any other stage visits only its events, s, and the
  numbers above max(base, m) in the intervals with a free number on the
  wrong side. The events are the scripted sets' per-stage lists, read
  without a copy.
- The speedup certificate's zone check, and the verifier's settled-zone
  census, sweep the stage upward and recheck a number only when it toggles
  in X or enters A or B.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from itertools import chain, zip_longest

from .enumcore import StageSet
from .errors import HypothesisViolation, UsageError
from .records import FieldError, Tail, bad_record, read_record, record_table
from .report import CheckResult, first_counterexample, first_divergence
from .scenario import no_rules
from .trace import fmt_ints, fmt_opt

MIN_SPEEDUP_FRACTION = 4  # accept when selected stages >= available / this


# ---------------------------------------------------------------------------
# single-update primitives


def trigger_prefix(limit, x_mem, a_new, b_new):
    """m, the least number that freshly crossed X this stage: it entered B
    while inside X, or entered A while outside X. A number y sees a smaller
    fresh crossing exactly when y > m, so this one integer stands for the
    whole trigger prefix over [0, limit + 1]. When nothing crossed, m is
    limit + 2, and no number up to limit + 1 is permitted through it."""
    m = None
    for crossed, new in ((True, b_new), (False, a_new)):
        for z in new:
            if (z in x_mem) == crossed and (m is None or z < m):
                m = z
    return limit + 2 if m is None else m


def boundary_update(base, old_entries, s1, m, bare, scripted):
    """Recompute the boundary sequence at stage s1 = s+1 from the stage-s
    sequence, which is strictly increasing above base and ends below s.

    An odd-indexed entry survives while its interval holds a witness, a
    number outside the scripted sets that is inside X, or else a number
    outside the scripted sets permitted by a fresh crossing below it (above
    m); even-indexed entries mirror this with "outside X". The first entry
    that fails is reset to s and the sequence ends. `bare` lists, ascending,
    the indices of the old intervals that hold no witness (A and B taken
    with this stage's events, X as the previous stage left it), and
    `scripted` is the sorted list of the scripted numbers; every other
    interval survives without a look. Cuts `old_entries` in place to its
    first `kept` entries, appends s and returns kept.
    """
    s = s1 - 1
    if base >= s:
        old_entries.clear()
        return -1
    for idx in bare:
        lo = max(old_entries[idx - 1] if idx else base, m)
        hi = old_entries[idx]
        scripted_in = bisect_right(scripted, hi) - bisect_right(scripted, lo)
        if lo >= hi or scripted_in == hi - lo:
            break
    else:
        idx = len(old_entries)
    old_entries[idx:] = [s]
    return idx


def x_update(entries, base, s1, x_mem, a_now, b_now, m, positions):
    """Membership changes for stage s1 given the freshly recomputed boundary.

    Rules in order: members of A are in, members of B are out, permitted
    numbers in odd intervals come in, permitted numbers in even intervals go
    out, everything else keeps its side. Only `positions` (ascending, each
    once) are visited. A stepping attempt calls this only at a stage with a
    crossing at or below s, or with s at or below the base, and hands over
    the stage's events, s, and the numbers above max(base, m) in the
    intervals that hold a free number on the wrong side of X (see
    AttemptRun.step): as long as A is inside X and B outside it before the
    stage, no other number can change. Returns (added, removed), sorted."""
    s = s1 - 1
    added, removed = [], []
    for y in positions:
        inside = y in x_mem
        if y in a_now:
            if not inside:
                added.append(y)
        elif y in b_now:
            if inside:
                removed.append(y)
        elif base < y <= s and (y == s or y > m):
            j = bisect_left(entries, y)
            if j < len(entries) and (j % 2 == 1) != inside:
                (removed if inside else added).append(y)
    return added, removed


# ---------------------------------------------------------------------------
# attempt runner


class AttemptRun:
    """One attempt: boundary plus X evolution over a (possibly re-indexed)
    timeline. Records one boundary record per stage and one record per X
    membership change. `step` takes one of three paths per stage; the test
    suite checks them against a full recomputation and against a stepper
    that walks the boundary at every stage."""

    def __init__(self, attempt, base, a_events, b_events, horizon):
        self.attempt = attempt
        self.base = base
        self.horizon = horizon
        # filled by add: scripted events past this attempt's horizon stay
        self.a, self.b = StageSet(horizon=horizon), StageSet(horizon=horizon)
        for scripted, events in ((self.a, a_events), (self.b, b_events)):
            for e, t in events:
                scripted.add(e, max(1, t))
        self.a_now: set[int] = set()
        self.b_now: set[int] = set()
        self.scripted: list[int] = []  # sorted a_now | b_now
        self.x: set[int] = set()
        self.entries: list[int] = []
        # aligned with entries: numbers of each interval outside A and B,
        # inside X and outside X; bare lists, ascending, the intervals with
        # none on their own side (inside X for odd indices), and misplaced
        # those with some on the wrong side
        self.c_in: list[int] = []
        self.c_out: list[int] = []
        self.bare: list[int] = []
        self.misplaced: list[int] = []
        self.kept_counts: list[int] = []  # index s1-1 -> kept at stage s1
        self.records: list[tuple] = []
        self.x_toggles: dict[int, list[int]] = {}
        # stage -> the stage's X change records, in record order
        self.x_changes: dict[int, list[tuple]] = {}
        self.entry_resets: list[list[int]] = []  # per index: reset stages

    @classmethod
    def from_records(cls, attempt, base, a_events, b_events, horizon, records):
        """A finished attempt rebuilt from its recorded boundary and X
        events, without stepping it. The records are those of a section
        decoded by RECORDS: boundary, xin and xout records, one boundary
        record per stage, each within bounds."""
        run = cls(attempt, base, a_events, b_events, horizon)
        for kind, s1, val in records:
            if kind == "boundary":
                run._record_boundary(s1, val)
            elif (kind == "xin") == (val in run.x):
                where = "already in X" if kind == "xin" else "outside X"
                raise UsageError(f"record ev {s1} {kind} {val}: number {where}")
            elif kind == "xin":
                run._apply_delta([val], [], s1)
            else:
                run._apply_delta([], [val], s1)
        return run

    def x_member_at(self, y, t):
        """Membership of X at the end of stage t."""
        tog = self.x_toggles.get(y)
        if not tog:
            return False
        return bisect_right(tog, t) % 2 == 1

    def union_final(self):
        return self.a.entry.keys() | self.b.entry.keys()

    def _interval(self, y):
        """Index of the boundary interval whose counts include y; None when
        y is in A or B or lies outside every interval."""
        if y <= self.base or y in self.a_now or y in self.b_now:
            return None
        j = bisect_left(self.entries, y)
        return j if j < len(self.entries) else None

    def _count(self, j, d_in, d_out):
        """Shift the counts of interval j, keeping `bare` and `misplaced` in
        step."""
        if j % 2 == 1:
            own, other = self.c_in, self.c_out
        else:
            own, other = self.c_out, self.c_in
        had, stray = own[j] > 0, other[j] > 0
        self.c_in[j] += d_in
        self.c_out[j] += d_out
        if had != (own[j] > 0):
            if had:
                insort(self.bare, j)
            else:
                del self.bare[bisect_left(self.bare, j)]
        if stray != (other[j] > 0):
            if stray:
                del self.misplaced[bisect_left(self.misplaced, j)]
            else:
                insort(self.misplaced, j)

    def _open_last(self, c_in, c_out):
        """Open a new last interval with these counts."""
        j = len(self.c_in)
        self.c_in.append(c_in)
        self.c_out.append(c_out)
        own, other = (c_in, c_out) if j % 2 else (c_out, c_in)
        if not own:
            self.bare.append(j)
        if other:
            self.misplaced.append(j)

    def _apply_delta(self, added, removed, s1):
        changes = self.x_changes.setdefault(s1, [])
        for kind, moved, d_in in (("xin", added, 1), ("xout", removed, -1)):
            for y in moved:
                if d_in > 0:
                    self.x.add(y)
                else:
                    self.x.discard(y)
                self.x_toggles.setdefault(y, []).append(s1)
                self.records.append((kind, s1, y))
                changes.append(self.records[-1])
                j = self._interval(y)
                if j is not None:
                    self._count(j, d_in, -d_in)

    def _reset_counts(self, kept, last, s):
        """Counts for the stage's new boundary, which keeps the first `kept`
        intervals: the new last interval `kept` takes the numbers from the old
        last entry `last` + 1 up to s. When interval `kept` exists, the ones
        after it merge into it and it is widened in place through `_count`;
        at most cofinite stages none follow it, and the merge is skipped."""
        if kept < 0:
            self.c_in, self.c_out, self.bare, self.misplaced = [], [], [], []
            return
        a, b, x = self.a_now, self.b_now, self.x
        counts = [0, 0]  # the newly covered numbers outside A and B: out, in X
        for y in range(last + 1, s + 1):
            if y not in a and y not in b:
                counts[y in x] += 1
        c_out, c_in = counts
        if kept < len(self.c_in):
            if kept + 1 < len(self.c_in):
                c_in += sum(self.c_in[kept + 1 :])
                c_out += sum(self.c_out[kept + 1 :])
                del self.c_in[kept + 1 :], self.c_out[kept + 1 :]
                del self.bare[bisect_right(self.bare, kept) :]
                del self.misplaced[bisect_right(self.misplaced, kept) :]
            self._count(kept, c_in, c_out)
        else:
            self._open_last(c_in, c_out)

    def _record_boundary(self, s1, kept):
        self.kept_counts.append(kept)
        self.records.append(("boundary", s1, kept))
        if kept >= 0:
            while len(self.entry_resets) <= kept:
                self.entry_resets.append([])
            self.entry_resets[kept].append(s1)

    def step(self):
        """Stage s1 = s + 1 on one of three paths. Quiet, with no events, no
        witness-free interval and base below s (see the module docstring):
        the boundary gains s and only s can move. Short, after the events
        and trigger_prefix: no crossing at or below s and base below s, so
        every witness-free interval fails (max(prev, m) > s >= its entry),
        and as A is inside X and B outside it, only s and the crossings
        above s, A events outside X, can move. Crossing: every other stage,
        through boundary_update and x_update."""
        s1 = len(self.kept_counts) + 1
        s = s1 - 1
        a_new = self.a.by_stage.get(s1, ())
        b_new = self.b.by_stage.get(s1, ())
        base, entries, x = self.base, self.entries, self.x
        a_now, b_now = self.a_now, self.b_now
        j = len(entries)
        if not (a_new or b_new or self.bare) and base < s:
            # quiet: every entry is kept and the new last interval is (s-1, s].
            # X holds no number above s - 1 but members of A, so s is in X
            # only when in A, and a free s on an odd interval moves in
            entries.append(s)
            self._record_boundary(s1, j)
            if s in a_now or s in b_now:
                self._open_last(0, 0)
            elif j % 2:
                self._open_last(1, 0)
                x.add(s)
                self.x_toggles[s] = [s1]
                self.records.append(("xin", s1, s))
                self.x_changes[s1] = [self.records[-1]]
            else:
                self._open_last(0, 1)
            return
        # the stage's events leave their intervals' counts
        for now, new in ((a_now, a_new), (b_now, b_new)):
            for e in new:
                if e not in a_now and e not in b_now:
                    insort(self.scripted, e)
                    i = bisect_left(entries, e)
                    if e > base and i < j:
                        self._count(i, *((-1, 0) if e in x else (0, -1)))
                now.add(e)
        m = trigger_prefix(s, x, a_new, b_new)
        last = entries[-1] if j else base
        short = m > s and base < s
        if short:
            kept = self.bare[0] if self.bare else j
            entries[kept:] = [s]
        else:
            kept = boundary_update(base, entries, s1, m, self.bare, self.scripted)
        self._reset_counts(kept, last, s)
        self._record_boundary(s1, kept)
        if short:
            # s is outside X unless in A, and by_stage lists ascend
            added, removed = [e for e in a_new if e not in x], []
            if kept % 2 and s not in a_now and s not in b_now:
                added.insert(0, s)
        else:
            # the numbers whose side can change, ascending: those above
            # max(base, m) in the intervals with a free number on the wrong
            # side, s when it is not above max(base, m), and the stage's events
            lo = max(base, m)
            positions = []
            misplaced = self.misplaced
            for i in misplaced[bisect_left(misplaced, bisect_right(entries, lo)) :]:
                start = max(entries[i - 1] if i else base, lo)
                positions.extend(range(start + 1, entries[i] + 1))
            if lo >= s:
                positions.append(s)
            for events in (a_new, b_new):
                for y in events:
                    i = bisect_left(positions, y)
                    if i == len(positions) or positions[i] != y:
                        positions.insert(i, y)
            added, removed = x_update(entries, base, s1, x, a_now, b_now, m, positions)
        if added or removed:
            self._apply_delta(added, removed, s1)

    def run(self):
        while len(self.kept_counts) < self.horizon:
            self.step()
        return self

    # reconstruction helpers -------------------------------------------------

    def entry_value_at(self, j, t):
        """Value of boundary entry j at the end of stage t, or None."""
        if t < 1 or t > self.horizon or j < 0 or j >= len(self.entry_resets):
            return None
        if self.kept_counts[t - 1] < j:
            return None
        resets = self.entry_resets[j]
        i = bisect_right(resets, t) - 1
        if i < 0:
            return None
        return resets[i] - 1


# ---------------------------------------------------------------------------
# derived c.e. witness set and outcome detection


def derive_w(run: AttemptRun):
    """The crossing log: numbers entering the scripted sets on the wrong side
    of X, with their stages, plus both change-trigger checks.

    Returns (w, forward_violations, backward_violations), W as a StageSet: a
    crossing must change X the same stage, and an X change at x during a
    stage past x must see a crossing at or below x."""
    w = StageSet(horizon=run.horizon)
    for e, t in run.a.entry.items():
        if not run.x_member_at(e, t - 1):
            w.add(e, t)
    for e, t in run.b.entry.items():
        if run.x_member_at(e, t - 1):
            w.add(e, t)
    forward = [
        (e, t)
        for e, t in w.events
        if all(y != e for _, _, y in run.x_changes.get(t, ()))
    ]
    backward = []
    for t, changes in run.x_changes.items():
        ws = w.by_stage.get(t)
        for _, _, x in changes:
            if t - 1 > x and (not ws or ws[0] > x):
                backward.append((x, t))
    return w, forward, backward


class OutcomeReport:
    __slots__ = ("ell", "k", "parity", "stable_values")

    def __init__(self, ell, k, parity, stable_values):
        self.ell = ell  # longest stable prefix over the window, minus one
        self.k = k  # first apparently divergent entry index
        self.parity = parity  # k % 2
        self.stable_values: list[int] = stable_values


def detect_outcome(run: AttemptRun, window: int) -> OutcomeReport:
    """Horizon-relative report: longest boundary prefix unchanged over the
    final `window` stages, its values, and the first apparently divergent
    index."""
    horizon = run.horizon
    if window > horizon:
        raise ValueError("window exceeds horizon")
    lo = max(1, horizon - window + 1)
    min_kept = min(run.kept_counts[lo - 1 :]) if run.kept_counts else -1
    ell = min_kept - 1
    k = min_kept
    values = []
    for j in range(max(0, k)):
        v = run.entry_value_at(j, horizon)
        if v is None:  # reachable only on corrupted records
            break
        values.append(v)
    return OutcomeReport(ell=ell, k=k, parity=k % 2, stable_values=values)


def scenario_outcome(run: AttemptRun, horizon: int) -> OutcomeReport:
    """detect_outcome over the final fifth of the scenario horizon, cut to
    the attempt's own horizon."""
    return detect_outcome(run, max(1, min(horizon // 5, run.horizon)))


# ---------------------------------------------------------------------------
# speedup certificates


class SpeedupCertificate:
    __slots__ = ("attempt", "ell", "k", "parity", "settling_stage")

    def __init__(self, attempt, ell, k, parity, settling_stage):
        self.attempt = attempt  # the attempt being certified as failed (1 or 2)
        self.ell = ell
        self.k = k
        self.parity = parity  # parity of k
        self.settling_stage = settling_stage


class SpeedupResult:
    __slots__ = (
        "accepted", "reason", "witness_stage", "stage_map",
        "new_base", "new_a_events", "new_b_events", "new_horizon",
    )

    def __init__(
        self,
        accepted: bool,
        reason: str = "",
        witness_stage: int | None = None,
        stage_map: list[int] | None = None,
        new_base: int | None = None,
        new_a_events: list[tuple[int, int]] | None = None,
        new_b_events: list[tuple[int, int]] | None = None,
        new_horizon: int = 0,
    ):
        self.accepted = accepted
        self.reason = reason
        self.witness_stage = witness_stage
        self.stage_map = [] if stage_map is None else stage_map
        self.new_base = new_base
        self.new_a_events = [] if new_a_events is None else new_a_events
        self.new_b_events = [] if new_b_events is None else new_b_events
        self.new_horizon = new_horizon

    def __eq__(self, other):
        if type(other) is not SpeedupResult:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)


class _ZoneSweep:
    """The numbers in (x_ell, top] on the wrong side of a zone, kept current
    while the stage t sweeps upward.

    `wrong(y, t)` decides one number at one stage from X membership and the
    scripted sets, so its answer changes only at a stage where y toggles in
    X or enters A or B. `advance` rechecks just those numbers, then widens
    the zone to a new top; each number is decided once on entry and once per
    change, not once per stage."""

    def __init__(self, run: AttemptRun, x_ell, wrong):
        self.run = run
        self.x_ell = self.top = x_ell
        self.wrong = wrong
        self.holes: set[int] = set()

    def _decide(self, y, t):
        if self.wrong(y, t):
            self.holes.add(y)
        else:
            self.holes.discard(y)

    def advance(self, t, top):
        """The wrong-side numbers at stage t, the zone widened to `top`;
        stages must come in ascending order."""
        run = self.run
        toggled = (y for _, _, y in run.x_changes.get(t, ()))
        for y in chain(toggled, run.a.by_stage.get(t, ()), run.b.by_stage.get(t, ())):
            if self.x_ell < y <= self.top:
                self._decide(y, t)
        while self.top < top:
            self.top += 1
            self._decide(self.top, t)
        return self.holes


def apply_speedup(run: AttemptRun, cert: SpeedupCertificate) -> SpeedupResult:
    """Validate a failure certificate against an attempt and re-index.

    Selected stages must keep the prefix below k at its settled values, keep
    entry k defined and above the new stage number, and keep the zone above
    the settled point on the already-decided side (inside A or outside X for
    odd k; inside X or inside B for even k). Greedy selection; rejected when
    the settled prefix moves after the settling stage, when nothing
    qualifies, or when selection stalls well before the horizon."""
    horizon = run.horizon
    if cert.ell < -1 or cert.k != cert.ell + 1:
        return SpeedupResult(False, reason="certificate k must be ell + 1")
    if cert.parity != cert.k % 2:
        return SpeedupResult(False, reason="certificate parity does not match k")
    if not (1 <= cert.settling_stage <= horizon):
        return SpeedupResult(False, reason="settling stage outside trace")
    # no entry past the last one ever set is defined, however large k is
    reach = range(min(cert.k, len(run.entry_resets) + 1))
    values = [run.entry_value_at(j, cert.settling_stage) for j in reach]
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

    def wrong_side(y, t):
        if run.x_member_at(y, t):
            return odd and not run.a.member_at(y, t)
        return not odd and not run.b.member_at(y, t)

    zone = _ZoneSweep(run, x_ell, wrong_side)
    stage_map: list[int] = []
    for t in range(cert.settling_stage, horizon + 1):
        s_new = len(stage_map)
        holes = zone.advance(t, s_new)
        vk = run.entry_value_at(cert.k, t)
        if vk is not None and vk > s_new and not holes:
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
            i = bisect_right(stage_map, t0 - 1)  # least i with map[i] >= t0
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


# ---------------------------------------------------------------------------
# the three-attempt pipeline


class NosupermaxResult:
    __slots__ = ("attempts", "outcomes", "cert_results")

    def __init__(self, attempts, outcomes, cert_results):
        self.attempts: list[AttemptRun] = attempts
        self.outcomes: list[OutcomeReport] = outcomes
        self.cert_results: list[tuple[SpeedupCertificate, SpeedupResult]] = cert_results


def run_attempt(attempt, base, a_events, b_events, horizon):
    if attempt not in (1, 2, 3):
        raise ValueError(f"no such attempt {attempt}")
    return AttemptRun(attempt, base, a_events, b_events, horizon).run()


def run_nosupermax(a_events, b_events, horizon, certs) -> NosupermaxResult:
    """Attempt 1 always runs; each accepted certificate unlocks the next
    attempt on the re-indexed timeline. A rejected certificate ends the
    pipeline with its rejection recorded."""
    attempts = [run_attempt(1, -1, a_events, b_events, horizon)]
    outcomes = [scenario_outcome(attempts[0], horizon)]
    cert_results: list[tuple[SpeedupCertificate, SpeedupResult]] = []
    for i, cert in enumerate(certs):
        if cert.attempt != i + 1:
            raise ValueError(
                f"certificate {i} targets attempt {cert.attempt}, expected {i + 1}"
            )
        res = apply_speedup(attempts[-1], cert)
        cert_results.append((cert, res))
        if not res.accepted:
            break
        nxt = run_attempt(
            i + 2,
            res.new_base,
            res.new_a_events,
            res.new_b_events,
            max(1, res.new_horizon),
        )
        attempts.append(nxt)
        outcomes.append(scenario_outcome(nxt, horizon))
    return NosupermaxResult(attempts, outcomes, cert_results)


# ---------------------------------------------------------------------------
# verification


def _at(seq, i):
    return seq[i] if i < len(seq) else None


def _timeline_check(run, ref) -> CheckResult:
    """Attempt number, base and horizon of an attempt against its fresh
    counterpart; a failure names only the fields that differ."""
    got, want = ({} if r is None else vars(r) for r in (run, ref))
    differ = [k for k in ("attempt", "base", "horizon") if got.get(k) != want.get(k)]

    def show(fields):
        return " ".join(f"{k} {fields[k]}" for k in differ) if fields else "none"

    return CheckResult(
        f"a{(run or ref).attempt}-timeline-agrees",
        not differ,
        f"recorded {show(got)}, fresh run {show(want)}",
    )


def _cert_check(got, want) -> CheckResult:
    """A certificate's verdict, stage and reason against the fresh run's; a
    failure names the certificate by its ell, k and settling stage."""

    def show(cert_res):
        if cert_res is None:
            return "none"
        res = cert_res[1]
        if res.accepted:
            return "accepted"
        stage = "" if res.witness_stage is None else f" at stage {res.witness_stage}"
        return f"rejected{stage}" + (f" ({res.reason})" if res.reason else "")

    cert = (got or want)[0]
    return CheckResult(
        f"a{cert.attempt}-cert-outcome-agrees",
        show(got) == show(want),
        f"certificate ell {cert.ell} k {cert.k} settling stage {cert.settling_stage}:"
        f" recorded {show(got)}, recomputed {show(want)}",
    )


def _verify_attempt(run: AttemptRun, ref: AttemptRun | None, checks):
    tag = f"a{run.attempt}"
    horizon = run.horizon

    # exactness: the fresh run's attempt must hold the same boundary and X
    # records, compared in their trace form
    def ev(records):
        return [("ev", s1, kind, val) for kind, s1, val in records]

    detail = ""
    if ref is None or run.records != ref.records:
        detail = first_divergence(ev(run.records), ev(ref.records if ref else []))
    checks.append(CheckResult(f"{tag}-boundary-exactness", not detail, detail))

    w, fwd, bwd = derive_w(run)
    sep_viol = []
    disc_viol = []
    shape_viol = []
    rec_entries: list[int] = []
    a_by, b_by, w_by = run.a.by_stage, run.b.by_stage, w.by_stage
    for s1 in range(1, horizon + 1):
        s = s1 - 1
        a_new = a_by.get(s1, ())
        b_new = b_by.get(s1, ())
        kept = run.kept_counts[s1 - 1]
        # boundary shape on the recorded kept counts
        if kept > len(rec_entries):
            shape_viol.append((s1, f"kept {kept} exceeds previous length"))
            kept = len(rec_entries)
        if kept < 0:
            if run.base < s:
                shape_viol.append((s1, "sequence empty below the stage"))
            rec_entries.clear()
        else:
            # the kept prefix passed at an earlier stage, or a violation is
            # already on record; only the new last pair can break the order
            del rec_entries[kept:]
            below = rec_entries[-1] if rec_entries else run.base
            rec_entries.append(s)
            if below >= s:
                shape_viol.append((s1, "not strictly increasing"))
        # change discipline on the recorded deltas; W's least entry of the
        # stage is the stage's least crossing
        changes = run.x_changes.get(s1, ())
        crossed = w_by.get(s1)
        for kind, _, y in changes:
            was_in = run.x_member_at(y, s)
            ok = (
                (was_in and run.b.member_at(y, s1))
                or (not was_in and run.a.member_at(y, s1))
                or (crossed and crossed[0] < y)
                or y == s
            )
            if not ok:
                disc_viol.append((y, s1))
        # separator property, event-driven
        for y in a_new:
            if not run.x_member_at(y, s1):
                sep_viol.append((y, s1, "A member out of X"))
        for y in b_new:
            if run.x_member_at(y, s1):
                sep_viol.append((y, s1, "B member inside X"))
        for kind, _, y in changes:
            if kind == "xout" and run.a.member_at(y, s1):
                sep_viol.append((y, s1, "A member pushed out of X"))
            if kind == "xin" and run.b.member_at(y, s1):
                sep_viol.append((y, s1, "B member pulled into X"))

    for name, violations, template in (
        ("separator-stagewise", sep_viol, "stage {1} element {0} ({2})"),
        (
            "change-discipline",
            disc_viol,
            "element {0} changed at stage {1} with no cause",
        ),
        ("boundary-shape", shape_viol, "stage {0}: {1}"),
        ("w-trigger-forward", fwd, "crossing of {0} at stage {1} without an X change"),
        (
            "w-trigger-backward",
            bwd,
            "X change at {0} stage {1} without a crossing below",
        ),
    ):
        checks.append(first_counterexample(f"{tag}-{name}", violations, template))


def verify_nosupermax(result: NosupermaxResult, fresh: NosupermaxResult):
    """Check a run (in a trace, the recorded one) against a fresh run of the
    same scenario, then check the run's own invariants.

    The fresh run is the reference for every agreement check: timelines,
    certificate outcomes, boundary and X records, and selection maps. The
    invariants look at `result` alone."""
    checks: list[CheckResult] = []
    caveats: list[str] = []
    for i in range(max(len(result.attempts), len(fresh.attempts))):
        checks.append(_timeline_check(_at(result.attempts, i), _at(fresh.attempts, i)))
        got, want = _at(result.cert_results, i), _at(fresh.cert_results, i)
        if got or want:
            checks.append(_cert_check(got, want))
    for i, run in enumerate(result.attempts):
        _verify_attempt(run, _at(fresh.attempts, i), checks)

    for i, (cert, res) in enumerate(result.cert_results):
        run = result.attempts[i]
        tag = f"a{cert.attempt}"
        if not res.accepted:
            stage = "" if res.witness_stage is None else f" (stage {res.witness_stage})"
            caveats.append(
                f"certificate for attempt {cert.attempt} rejected: {res.reason}{stage}"
            )
            continue
        want = _at(fresh.cert_results, i)
        fresh_map = want[1].stage_map if want else []
        pairs = zip_longest(res.stage_map, fresh_map, fillvalue="none")
        checks.append(
            first_counterexample(
                f"{tag}-speedup-bullets",
                [(j, u, v) for j, (u, v) in enumerate(pairs) if u != v],
                "map position {0}: recorded {1}, recomputed {2}",
            )
        )
        # census: past the settling stage, the zone between the settled point
        # and the live entry holds no permanent hole on the wrong side
        name = f"{tag}-settled-zone-census"
        x_ell = (
            run.entry_value_at(cert.k - 1, cert.settling_stage) if cert.k else run.base
        )
        if x_ell is None:  # reachable only on corrupted records
            detail = f"settled point undefined at stage {cert.settling_stage}"
            checks.append(CheckResult(name, False, detail))
            continue
        union_final = run.union_final()

        def hole_on_wrong_side(y, t):
            return y not in union_final and run.x_member_at(y, t) == (cert.parity == 1)

        zone = _ZoneSweep(run, x_ell, hole_on_wrong_side)
        viol = []
        for t in range(cert.settling_stage, run.horizon + 1):
            vk = run.entry_value_at(cert.k, t)
            if vk is None:
                zone.advance(t, x_ell)
                continue
            holes = [y for y in zone.advance(t, vk) if y <= vk]
            if holes:
                viol.append((min(holes), t))
                break
        checks.append(
            first_counterexample(
                name, viol, "permanent hole {0} on the wrong side at stage {1}"
            )
        )

    # hole-permission audit for attempts unlocked by a certificate
    for i, run in enumerate(result.attempts):
        if run.attempt == 1:
            continue
        tag = f"a{run.attempt}"
        out = result.outcomes[i]
        if out.k < 0:
            continue
        window = max(1, run.horizon // 5)
        x_ell = out.stable_values[-1] if out.stable_values else run.base
        union_final = run.union_final()
        # first stage at which entry k reaches y, per ascending y (two-pointer)
        vk_by_stage = [run.entry_value_at(out.k, t) for t in range(run.horizon + 1)]
        viol = []
        audited = 0
        t_ptr = 1
        for y in range(x_ell + 1, max(x_ell + 1, run.horizon - window)):
            if y in union_final:
                continue
            while t_ptr <= run.horizon and (
                vk_by_stage[t_ptr] is None or vk_by_stage[t_ptr] < y
            ):
                t_ptr += 1
            if t_ptr > run.horizon or t_ptr > run.horizon - window:
                break
            audited += 1
            in_x = run.x_member_at(y, t_ptr)
            if in_x != (out.k % 2 == 1):
                viol.append((y, t_ptr))
        checks.append(
            first_counterexample(
                f"{tag}-hole-permission",
                viol,
                "hole {0} not placed per parity at stage {1}",
            )
        )
        caveats.append(
            f"attempt {run.attempt}: audited {audited} holes above the settled"
            " point; horizon-relative"
        )

    for i, out in enumerate(result.outcomes):
        caveats.append(
            f"attempt {i + 1}: stable prefix length {out.ell + 1} over the final"
            f" window, first apparently divergent entry {out.k}"
            " (limit facts beyond the horizon are not decidable)"
        )
    return checks, caveats


# ---------------------------------------------------------------------------
# scenario and trace hooks; the body is (attempts, certs), one (attempt,
# base, horizon, records) per attempt section and one (attempt, accepted,
# witness stage, reason, stage map) per certificate; the stage map is None
# when no map line is recorded

SET_NAMES = re.compile(r"[AB]")
PROGRAM_NAMES = None
FIRST_STAGE = 1
NOTE = "boundary reset clause read literally across mixed stage indices"
check_set = no_rules


def check_schema(sc):
    if len(sc.certs) > 2:
        raise UsageError("at most two certificates")
    for i, c in enumerate(sc.certs):
        if c.attempt != i + 1:
            raise UsageError(f"certificate {i + 1} must target attempt {i + 1}")


def audit(sc):
    a = {e for e, _ in sc.sets.get("A", [])}
    b = {e for e, _ in sc.sets.get("B", [])}
    inter = a & b
    if inter:
        raise HypothesisViolation(f"scripted sets intersect at element {min(inter)}")


def fresh(sc):
    result = run_nosupermax(
        sc.sets.get("A", []), sc.sets.get("B", []), sc.horizon, sc.certs
    )
    attempts = [(r.attempt, r.base, r.horizon, r.records) for r in result.attempts]
    certs = []
    for cert, res in result.cert_results:
        stage_map = res.stage_map if res.accepted else None
        fields = (res.accepted, res.witness_stage, res.reason, stage_map)
        certs.append((cert.attempt, *fields))
    return result, (attempts, certs)


def encode(log) -> list[str]:
    attempts, certs = log
    lines = []
    for i, (attempt, base, horizon, records) in enumerate(attempts):
        lines.append(f"attempt {attempt} begin {base} {horizon}")
        lines.extend(f"ev {stage} {kind} {value}" for kind, stage, value in records)
        lines.append(f"attempt {attempt} end")
        if i < len(certs):
            attempt, accepted, witness, reason, stage_map = certs[i]
            verdict = "accepted" if accepted else f"rejected {fmt_opt(witness)} {reason}"
            lines.append(f"cert {attempt} {verdict}")
            if stage_map is not None:
                lines.append(f"map {fmt_ints(stage_map)}")
    return lines


def dec(tok):
    """An integer in canonical decimal: records are compared by value, so a
    respelled one would pass."""
    value = int(tok)
    if str(value) != tok:
        raise FieldError("an integer is not in canonical decimal")
    return value


# a body's records by their first token, then attempt, cert and ev records
# by their third: the types of the tokens after that one. The second token
# of those (the attempt or the stage) is read by dec after them.
RECORDS = {
    "attempt": record_table({"begin": (dec, dec), "end": ()}),
    # a rejection's witness stage, then its free-text reason
    "cert": record_table({
        "accepted": (),
        "rejected": (lambda tok: None if tok == "-" else dec(tok), Tail(list)),
    }),
    "ev": record_table({"boundary": (dec,), "xin": (dec,), "xout": (dec,)}),
    "map": record_table({"map": (Tail(lambda toks: map(dec, toks)),)}),
}


def decode(body, horizon):
    """(attempts, certs) from the body lines, each record read by RECORDS,
    so that every integer in it is in canonical decimal. An attempt's own
    horizon bounds the stages of its records. `horizon`, the scenario's,
    bounds each attempt's base and the stages of each map; not the attempt's
    horizon, so that a section whose horizon alone was edited still gets a
    report (its timeline check names the change)."""
    # the records each record may follow; None stands for the start of the
    # body. A section may follow a section without a certificate: the
    # verifier, not the decoder, reports a chain that differs from the fresh
    # run's.
    follows = {
        "begin": (None, "end", "accepted", "map", "rejected"),
        "ev": ("begin", "ev"),
        "end": ("begin", "ev"),
        "accepted": ("end",),
        "rejected": ("end",),
        "map": ("accepted",),
    }
    attempts, certs = [], []
    prev = None
    for parts in body:
        table = RECORDS.get(parts[0])
        if table is None:
            raise UsageError(f"unknown record {parts[0]} in trace body")
        at = 0 if parts[0] == "map" else 2
        try:
            fields = read_record(parts, table, at, dec)
        except ValueError as exc:
            raise bad_record(parts, exc)
        if fields is None and parts[0] == "ev":
            raise UsageError(f"unknown event {parts[2]} in trace body")
        if fields is None:
            raise bad_record(parts, f"third token not {' or '.join(table)}")
        kind = parts[at] if parts[0] != "ev" else "ev"
        if prev not in follows[kind]:
            raise UsageError(f"{parts[0]} record out of place in trace body")
        prev = kind
        if kind == "ev":
            # bounded before any attempt is rebuilt from the records: a kept
            # index sizes the per-entry reset lists
            s1, value = fields
            _, _, h, records = attempts[-1]
            if not 1 <= s1 <= h:
                raise bad_record(parts, f"stage outside 1..{h}")
            if parts[2] == "boundary" and not -1 <= value < h:
                raise bad_record(parts, f"kept index outside -1..{h - 1}")
            records.append((parts[2], s1, value))
            continue
        if kind == "begin":
            # an attempt's base is -1 or a settled boundary value; the
            # verifier's scans start just above it
            attempt, base, h = fields
            if base < -1:
                raise bad_record(parts, "base below -1")
            if base > horizon:
                raise bad_record(parts, f"base above the scenario horizon {horizon}")
            attempts.append((attempt, base, h, []))
            continue
        attempt, _, h, records = attempts[-1]
        if kind == "map":
            rising = all(u < v for u, v in zip(fields, fields[1:]))
            inside = not fields or 0 < fields[0] and fields[-1] <= horizon
            if not (rising and inside):
                why = f"stages not strictly rising within 1..{horizon}"
                raise bad_record(parts, why)
            certs[-1] = (*certs[-1][:4], fields)
        elif fields[0] != attempt:
            raise bad_record(parts, f"in the section of attempt {attempt}")
        elif kind == "end":
            count = sum(rec[0] == "boundary" for rec in records)
            if count != h:
                raise UsageError(
                    f"attempt {attempt} carries {count} boundary records for horizon"
                    f" {h}"
                )
        elif kind == "accepted":
            certs.append((attempt, True, None, "", None))
        else:
            _, witness, *reason = fields
            certs.append((attempt, False, witness, " ".join(reason), None))
    if prev is None:
        raise UsageError("trace carries no attempts")
    if prev in ("begin", "ev"):
        raise UsageError("attempt section without an end")
    return attempts, certs


def check(sc, run, log, detail):
    """A decoded log is checked on attempts rebuilt from its sections, each
    with the scripted events of the fresh attempt in its place (none when
    the fresh run lacks the attempt)."""
    if detail is None:
        return verify_nosupermax(run, run)
    sections, certs = log
    attempts = []
    for i, (attempt, base, horizon, records) in enumerate(sections):
        ref = _at(run.attempts, i)
        events = (ref.a.events, ref.b.events) if ref else ([], [])
        attempts.append(
            AttemptRun.from_records(attempt, base, *events, horizon, records)
        )
    outcomes = [scenario_outcome(att, sc.horizon) for att in attempts]
    cert_results = [
        (sc.certs[i], SpeedupResult(accepted, reason, witness, stage_map or []))
        for i, (_, accepted, witness, reason, stage_map) in enumerate(certs)
    ]
    return verify_nosupermax(NosupermaxResult(attempts, outcomes, cert_results), run)
