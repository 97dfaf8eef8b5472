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
- The fresh crossings of a stage enter only through m, the least of them:
  a number y is permitted by a crossing exactly when y > m.
- After every stage A is inside X and B outside it, since the A and B rules
  fire first and nothing else moves an A member. So the X update visits
  only the stage's events, the numbers above max(base, m), and s.
- Each boundary interval keeps counts of its numbers outside A and B,
  inside and outside X, plus the sorted list of the intervals with none on
  their own side. Events, X toggles and resets update these, so the
  boundary walk looks only at witness-free intervals.
- The speedup certificate's zone check, and the verifier's settled-zone
  census, sweep the stage upward and recheck a number only when it toggles
  in X or enters A or B.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain, zip_longest

from .enumcore import StageSet
from .errors import UsageError
from .report import CheckResult, first_counterexample, first_divergence

MIN_SPEEDUP_FRACTION = 4  # accept when selected stages >= available / this


# ---------------------------------------------------------------------------
# single-update primitives


def trigger_prefix(limit, x_mem, a_new, b_new):
    """m, the least number that freshly crossed X this stage: it entered B
    while inside X, or entered A while outside X. A number y sees a smaller
    fresh crossing exactly when y > m, so this one integer stands for the
    whole trigger prefix over [0, limit + 1]. At quiet stages m is
    limit + 2, and no number up to limit + 1 is permitted through it."""
    fresh = [z for z in b_new if z in x_mem] + [z for z in a_new if z not in x_mem]
    return min(fresh, default=limit + 2)


def permitted(y, s1, x_mem, a_now, b_now, m):
    """Permission at stage s1 = s+1: outside both scripted sets, and either
    y equals s or a smaller number freshly crossed X (y > m)."""
    if y in a_now or y in b_now:
        return False
    return y == s1 - 1 or y > m


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
    interval survives without a look. Returns (entries, kept, fragile):
    fragile flags a kept entry whose interval holds no witness, so that it
    survived only through a crossing.
    """
    s = s1 - 1
    if base >= s:
        return [], -1, False
    fragile = False
    for idx in bare:
        lo = max(old_entries[idx - 1] if idx else base, m)
        hi = old_entries[idx]
        scripted_in = bisect_right(scripted, hi) - bisect_right(scripted, lo)
        if lo >= hi or scripted_in == hi - lo:
            break
        fragile = True
    else:
        idx = len(old_entries)
    return old_entries[:idx] + [s], idx, fragile


def x_update(entries, base, s1, x_mem, a_now, b_now, m, extra_positions=()):
    """Membership changes for stage s1 given the freshly recomputed boundary.

    Rules in order: members of A are in, members of B are out, permitted
    numbers in odd intervals come in, permitted numbers in even intervals go
    out, everything else keeps its side. Only numbers that can change are
    visited: `extra_positions` (sorted; this stage's scripted events), the
    numbers above max(base, m) up to s, and s itself. Every other number
    keeps its side as long as A is inside X and B outside it before the
    stage. Returns (added, removed), sorted."""
    s = s1 - 1
    lo = min(max(base, m) + 1, s)
    low = [y for y in extra_positions if y < lo]
    high = [y for y in extra_positions if y > s]
    added, removed = [], []
    for y in chain(low, range(lo, s + 1), high):
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
    membership change; a fast step keeps quiet stages cheap and is checked
    against the full recomputation by the test suite."""

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
        # none on their own side (inside X for odd indices)
        self.c_in: list[int] = []
        self.c_out: list[int] = []
        self.bare: list[int] = []
        self.kept_counts: list[int] = []  # index s1-1 -> kept at stage s1
        self.records: list[tuple] = []
        self.x_toggles: dict[int, list[int]] = {}
        # stage -> the stage's X change records, in record order
        self.x_changes: dict[int, list[tuple]] = {}
        self.entry_resets: list[list[int]] = []  # per index: reset stages
        self._dirty = True

    @classmethod
    def from_records(cls, attempt, base, a_events, b_events, horizon, records):
        """A finished attempt rebuilt from its recorded boundary and X
        events, without stepping it. The records are those of a decoded
        trace section: one boundary record per stage, each within bounds."""
        run = cls(attempt, base, a_events, b_events, horizon)
        for kind, s1, val in records:
            if kind == "boundary":
                run._record_boundary(s1, val)
            elif kind not in ("xin", "xout"):
                raise UsageError(f"unknown attempt event {kind}")
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

    def _free_counts(self, lo, hi):
        """(inside X, outside X) counts of the numbers in (lo, hi] outside A
        and B."""
        a, b = self.a_now, self.b_now
        free = [y for y in range(lo + 1, hi + 1) if y not in a and y not in b]
        inside = sum(y in self.x for y in free)
        return inside, len(free) - inside

    def _count(self, j, d_in, d_out):
        """Shift the counts of interval j, keeping `bare` in step."""
        own = self.c_in if j % 2 == 1 else self.c_out
        had = own[j] > 0
        self.c_in[j] += d_in
        self.c_out[j] += d_out
        if had != (own[j] > 0):
            if had:
                insort(self.bare, j)
            else:
                del self.bare[bisect_left(self.bare, j)]

    def _push_interval(self, lo, s):
        """Open a new last interval holding the numbers in (lo, s]."""
        j = len(self.c_in)
        self.c_in.append(0)
        self.c_out.append(0)
        self.bare.append(j)
        self._count(j, *self._free_counts(lo, s))

    def _apply_delta(self, added, removed, s1):
        if not added and not removed:
            return
        changes = self.x_changes.setdefault(s1, [])
        for y in added:
            self.x.add(y)
            self.x_toggles.setdefault(y, []).append(s1)
            self.records.append(("xin", s1, y))
            changes.append(self.records[-1])
            j = self._interval(y)
            if j is not None:
                self._count(j, 1, -1)
        for y in removed:
            self.x.discard(y)
            self.x_toggles.setdefault(y, []).append(s1)
            self.records.append(("xout", s1, y))
            changes.append(self.records[-1])
            j = self._interval(y)
            if j is not None:
                self._count(j, -1, 1)

    def _ingest(self, a_new, b_new):
        """Take in this stage's scripted events; a number that enters A or B
        leaves its interval's counts."""
        for now, new in ((self.a_now, a_new), (self.b_now, b_new)):
            for e in new:
                j = self._interval(e)
                if j is not None:
                    self._count(j, *((-1, 0) if e in self.x else (0, -1)))
                if e not in self.a_now and e not in self.b_now:
                    insort(self.scripted, e)
                now.add(e)

    def _reset_counts(self, kept, s):
        """Counts for the stage's new boundary, which keeps the first `kept`
        intervals: the dropped ones merge into the new last interval, which
        also takes the numbers newly covered up to s."""
        if kept < 0:
            self.c_in, self.c_out, self.bare = [], [], []
            return
        top = self.entries[-1] if self.entries else self.base
        merged = sum(self.c_in[kept:]), sum(self.c_out[kept:])
        del self.c_in[kept:], self.c_out[kept:]
        del self.bare[bisect_left(self.bare, kept) :]
        self._push_interval(top, s)
        self._count(kept, *merged)

    def _record_boundary(self, s1, kept):
        self.kept_counts.append(kept)
        self.records.append(("boundary", s1, kept))
        if kept >= 0:
            while len(self.entry_resets) <= kept:
                self.entry_resets.append([])
            self.entry_resets[kept].append(s1)

    def step(self):
        s1 = len(self.kept_counts) + 1
        s = s1 - 1
        a_new = self.a.entered_at(s1)
        b_new = self.b.entered_at(s1)
        if not a_new and not b_new and not self._dirty and self._fast_ok(s1):
            self._fast_step(s1)
            return
        self._ingest(a_new, b_new)
        m = trigger_prefix(s, self.x, a_new, b_new)
        entries, kept, fragile = boundary_update(
            self.base, self.entries, s1, m, self.bare, self.scripted
        )
        self._reset_counts(kept, s)
        self.entries = entries
        self._record_boundary(s1, kept)
        added, removed = x_update(
            entries,
            self.base,
            s1,
            self.x,
            self.a_now,
            self.b_now,
            m,
            extra_positions=sorted(set(a_new) | set(b_new)),
        )
        self._apply_delta(added, removed, s1)
        self._dirty = fragile or bool((set(added) | set(removed)) - {s})

    def _fast_ok(self, s1):
        s = s1 - 1
        if self.base >= s or not self.entries:
            return False
        last = self.entries[-1]
        if last != s - 1 or last in self.a_now or last in self.b_now:
            return False
        return (last in self.x) == ((len(self.entries) - 1) % 2 == 1)

    def _fast_step(self, s1):
        s = s1 - 1
        self._push_interval(s - 1, s)
        self.entries.append(s)
        self._record_boundary(s1, len(self.entries) - 1)
        idx = len(self.entries) - 1
        if s in self.a_now:
            if s not in self.x:
                self._apply_delta([s], [], s1)
        elif s not in self.b_now and idx % 2 == 1 and s not in self.x:
            self._apply_delta([s], [], s1)

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
        ws = w.entered_at(t)
        for _, _, x in changes:
            if t - 1 > x and (not ws or ws[0] > x):
                backward.append((x, t))
    return w, forward, backward


class OutcomeReport:
    __slots__ = ("ell", "k", "parity", "stable_values", "last_reset_of_k")

    def __init__(self, ell, k, parity, stable_values, last_reset_of_k):
        self.ell = ell  # longest stable prefix over the window, minus one
        self.k = k  # first apparently divergent entry index
        self.parity = parity  # k % 2
        self.stable_values: list[int] = stable_values
        self.last_reset_of_k: int | None = last_reset_of_k


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
    resets = run.entry_resets[k] if 0 <= k < len(run.entry_resets) else []
    return OutcomeReport(
        ell=ell,
        k=k,
        parity=k % 2,
        stable_values=values,
        last_reset_of_k=resets[-1] if resets else None,
    )


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
        for y in chain(toggled, run.a.entered_at(t), run.b.entered_at(t)):
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
    values = [run.entry_value_at(j, cert.settling_stage) for j in range(cert.k)]
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
    """A certificate's verdict, stage and reason against the fresh run's."""

    def show(cert_res):
        if cert_res is None:
            return "none"
        res = cert_res[1]
        if res.accepted:
            return "accepted"
        stage = "" if res.witness_stage is None else f" at stage {res.witness_stage}"
        return f"rejected{stage}" + (f" ({res.reason})" if res.reason else "")

    return CheckResult(
        f"a{(got or want)[0].attempt}-cert-outcome-agrees",
        show(got) == show(want),
        f"recorded {show(got)}, recomputed {show(want)}",
    )


def _verify_attempt(run: AttemptRun, ref: AttemptRun | None, checks):
    tag = f"a{run.attempt}"
    horizon = run.horizon

    # exactness: the fresh run's attempt must hold the same boundary and X
    # records, compared in their trace form
    def ev(records):
        return [("ev", s1, kind, val) for kind, s1, val in records]

    detail = first_divergence(ev(run.records), ev(ref.records if ref else []))
    checks.append(CheckResult(f"{tag}-boundary-exactness", not detail, detail))

    w, fwd, bwd = derive_w(run)
    sep_viol = []
    disc_viol = []
    shape_viol = []
    rec_entries: list[int] = []
    for s1 in range(1, horizon + 1):
        s = s1 - 1
        a_new = run.a.entered_at(s1)
        b_new = run.b.entered_at(s1)
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
        crossed = w.entered_at(s1)
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
