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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import zip_longest

from .errors import UsageError
from .report import CheckResult

MIN_SPEEDUP_FRACTION = 4  # accept when selected stages >= available / this

INF = float("inf")


# ---------------------------------------------------------------------------
# single-update primitives


def trigger_prefix(limit, x_mem, a_new, b_new):
    """trig[y] = some z < y freshly crossed X: z entered B while inside X, or
    entered A while outside X. Fresh entries are exactly this stage's events;
    at quiet stages the prefix is identically false."""
    fresh = set()
    for z in b_new:
        if z in x_mem:
            fresh.add(z)
    for z in a_new:
        if z not in x_mem:
            fresh.add(z)
    trig = [False] * (limit + 2)
    run = False
    for y in range(limit + 2):
        trig[y] = run
        if y in fresh:
            run = True
    return trig


def permitted(y, s1, x_mem, a_now, b_now, trig):
    """Permission at stage s1 = s+1: outside both scripted sets, and either
    y equals s or a smaller number freshly crossed X."""
    if y in a_now or y in b_now:
        return False
    return y == s1 - 1 or (y < len(trig) and trig[y])


def boundary_update(base, old_entries, s1, x_mem, a_now, b_now, trig):
    """Recompute the boundary sequence at stage s1 = s+1 from the stage-s
    sequence.

    Walks the old entries: an odd-indexed entry survives while its interval
    holds a number outside the scripted sets that is inside X, or permitted
    by a fresh crossing below, or equal to s; even-indexed entries mirror
    this with "outside X". The first entry that fails (or was never defined,
    or no longer exceeds its predecessor) is reset to s and the sequence
    ends. Returns (entries, witnesses, kept, fragile): witnesses caches one
    in-set witness per kept entry (None when the entry survived only through
    a crossing or the y = s escape), fragile flags such a None.
    """
    s = s1 - 1
    new: list[int] = []
    witnesses: list[int | None] = []
    fragile = False
    cur = base
    if cur >= s:
        return [], [], -1, False
    while True:
        idx = len(new)
        old_val = old_entries[idx] if idx < len(old_entries) else None
        if old_val is None or old_val <= cur:
            new.append(s)
            witnesses.append(None)
            return new, witnesses, idx, fragile
        want_in = idx % 2 == 1  # odd right endpoint: witness inside X
        witness = None
        kept = False
        for y in range(cur + 1, old_val + 1):
            if y in a_now or y in b_now:
                continue
            if (y in x_mem) == want_in:
                witness = y
                kept = True
                break
            if (y < len(trig) and trig[y]) or y == s:
                kept = True
        if kept:
            new.append(old_val)
            witnesses.append(witness)
            if witness is None:
                fragile = True
            cur = old_val
            continue
        new.append(s)
        witnesses.append(None)
        return new, witnesses, idx, fragile


def x_update(entries, base, s1, x_mem, a_now, b_now, trig, extra_positions=()):
    """Membership changes for stage s1 given the freshly recomputed boundary.

    Rules in order: members of A are in, members of B are out, permitted
    numbers in odd intervals come in, permitted numbers in even intervals go
    out, everything else keeps its side. Returns (added, removed), sorted."""
    s = s1 - 1
    added, removed = [], []
    j = 0
    for y in range(0, s + 1):
        while j < len(entries) and entries[j] < y:
            j += 1
        inside = y in x_mem
        if y in a_now:
            if not inside:
                added.append(y)
            continue
        if y in b_now:
            if inside:
                removed.append(y)
            continue
        if y <= base or j >= len(entries):
            continue
        if y == s or (y < len(trig) and trig[y]):
            want = j % 2 == 1
            if want and not inside:
                added.append(y)
            elif not want and inside:
                removed.append(y)
    for y in extra_positions:
        if y > s:
            inside = y in x_mem
            if y in a_now and not inside:
                added.append(y)
            elif y in b_now and inside:
                removed.append(y)
    return added, removed


# ---------------------------------------------------------------------------
# attempt runner


class AttemptRun:
    """One attempt: boundary plus X evolution over a (possibly re-indexed)
    timeline. Records one boundary record per stage and one record per X
    membership change; a cached-witness shortcut keeps quiet stages cheap and
    is checked against the full recomputation by the test suite."""

    def __init__(self, attempt, base, a_events, b_events, horizon):
        self.attempt = attempt
        self.base = base
        self.horizon = horizon
        self.a_entry: dict[int, int] = {}
        self.b_entry: dict[int, int] = {}
        self.a_by_stage: dict[int, list[int]] = {}
        self.b_by_stage: dict[int, list[int]] = {}
        for e, t in a_events:
            t = max(1, t)
            self.a_entry[e] = t
            self.a_by_stage.setdefault(t, []).append(e)
        for e, t in b_events:
            t = max(1, t)
            self.b_entry[e] = t
            self.b_by_stage.setdefault(t, []).append(e)
        for v in self.a_by_stage.values():
            v.sort()
        for v in self.b_by_stage.values():
            v.sort()
        self.a_now: set[int] = set()
        self.b_now: set[int] = set()
        self.x: set[int] = set()
        self.entries: list[int] = []
        self.witnesses: list[int | None] = []
        self.kept_counts: list[int] = []  # index s1-1 -> kept at stage s1
        self.records: list[tuple] = []
        self.x_toggles: dict[int, list[int]] = {}
        self.entry_resets: list[list[int]] = []  # per index: reset stages
        self._dirty = True

    @classmethod
    def from_records(cls, attempt, base, a_events, b_events, horizon, records):
        """A finished attempt rebuilt from its recorded boundary and X
        events, without stepping it."""
        run = cls(attempt, base, a_events, b_events, horizon)
        for kind, s1, val in records:
            if kind == "boundary":
                run._record_boundary(s1, val)
            elif kind == "xin":
                run._apply_delta([val], [], s1)
            elif kind == "xout":
                run._apply_delta([], [val], s1)
            else:
                raise UsageError(f"unknown attempt event {kind}")
        if len(run.kept_counts) != horizon:
            raise UsageError(
                f"attempt {attempt} carries {len(run.kept_counts)} boundary"
                f" records for horizon {horizon}"
            )
        return run

    def in_a_at(self, y, t):
        return self.a_entry.get(y, INF) <= t

    def in_b_at(self, y, t):
        return self.b_entry.get(y, INF) <= t

    def x_member_at(self, y, t):
        """Membership of X at the end of stage t."""
        tog = self.x_toggles.get(y)
        if not tog:
            return False
        return bisect_right(tog, t) % 2 == 1

    def union_final(self):
        return set(self.a_entry) | set(self.b_entry)

    def _apply_delta(self, added, removed, s1):
        for y in added:
            self.x.add(y)
            self.x_toggles.setdefault(y, []).append(s1)
            self.records.append(("xin", s1, y))
        for y in removed:
            self.x.discard(y)
            self.x_toggles.setdefault(y, []).append(s1)
            self.records.append(("xout", s1, y))

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
        a_new = self.a_by_stage.get(s1, [])
        b_new = self.b_by_stage.get(s1, [])
        if not a_new and not b_new and not self._dirty and self._fast_ok(s1):
            self._fast_step(s1)
            return
        self.a_now.update(a_new)
        self.b_now.update(b_new)
        trig = trigger_prefix(s, self.x, a_new, b_new)
        entries, witnesses, kept, fragile = boundary_update(
            self.base, self.entries, s1, self.x, self.a_now, self.b_now, trig
        )
        self.entries = entries
        self.witnesses = witnesses
        self._record_boundary(s1, kept)
        added, removed = x_update(
            entries,
            self.base,
            s1,
            self.x,
            self.a_now,
            self.b_now,
            trig,
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
        self.witnesses[-1] = self.entries[-1]
        self.entries.append(s)
        self.witnesses.append(None)
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

    def boundary_at(self, t):
        out = [self.base]
        j = 0
        while True:
            v = self.entry_value_at(j, t)
            if v is None:
                return out
            out.append(v)
            j += 1


# ---------------------------------------------------------------------------
# derived c.e. witness set and outcome detection


def derive_w(run: AttemptRun):
    """The crossing log: numbers entering the scripted sets on the wrong side
    of X, with their stages, plus both change-trigger checks.

    Returns (w_events, forward_violations, backward_violations): a crossing
    must change X the same stage, and an X change at x during a stage past x
    must see a crossing at or below x."""
    w_events = []
    for e, t in run.a_entry.items():
        if not run.x_member_at(e, t - 1):
            w_events.append((e, t))
    for e, t in run.b_entry.items():
        if run.x_member_at(e, t - 1):
            w_events.append((e, t))
    w_events.sort(key=lambda p: (p[1], p[0]))
    w_by_stage: dict[int, list[int]] = {}
    for e, t in w_events:
        w_by_stage.setdefault(t, []).append(e)

    deltas_by_stage: dict[int, list[int]] = {}
    for rec in run.records:
        if rec[0] in ("xin", "xout"):
            deltas_by_stage.setdefault(rec[1], []).append(rec[2])

    forward = [
        (e, t) for e, t in w_events if e not in deltas_by_stage.get(t, [])
    ]
    backward = []
    for t, xs in deltas_by_stage.items():
        ws = w_by_stage.get(t, [])
        wmin = min(ws) if ws else None
        for x in xs:
            if t - 1 > x and (wmin is None or wmin > x):
                backward.append((x, t))
    return w_events, forward, backward


@dataclass
class OutcomeReport:
    ell: int  # longest stable prefix over the window, minus one
    k: int  # first apparently divergent entry index
    parity: int  # k % 2
    stable_values: list[int]
    last_reset_of_k: int | None
    witnesses: list[tuple[int, int | None]]  # (entry index, hole witness)


def detect_outcome(run: AttemptRun, window: int) -> OutcomeReport:
    """Horizon-relative report: longest boundary prefix unchanged over the
    final `window` stages, per-interval hole witnesses with their X side, and
    the first apparently divergent index."""
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
    union = run.union_final()
    witnesses = []
    prev = run.base
    for n, v in enumerate(values):
        found = None
        for y in range(prev + 1, v + 1):
            if y in union:
                continue
            if (y in run.x) == (n % 2 == 1):
                found = y
                break
        witnesses.append((n, found))
        prev = v
    resets = run.entry_resets[k] if 0 <= k < len(run.entry_resets) else []
    return OutcomeReport(
        ell=ell,
        k=k,
        parity=k % 2,
        stable_values=values,
        last_reset_of_k=resets[-1] if resets else None,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# speedup certificates


@dataclass(frozen=True)
class SpeedupCertificate:
    attempt: int  # the attempt being certified as failed (1 or 2)
    ell: int
    k: int
    parity: int  # parity of k
    settling_stage: int


@dataclass
class SpeedupResult:
    accepted: bool
    reason: str = ""
    witness_stage: int | None = None
    stage_map: list[int] = field(default_factory=list)
    new_base: int | None = None
    new_a_events: list[tuple[int, int]] = field(default_factory=list)
    new_b_events: list[tuple[int, int]] = field(default_factory=list)
    new_horizon: int = 0


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

    def zone_ok(t, s_new):
        for y in range(x_ell + 1, s_new + 1):
            in_x = run.x_member_at(y, t)
            if odd:
                if in_x and not run.in_a_at(y, t):
                    return False
            else:
                if not in_x and not run.in_b_at(y, t):
                    return False
        return True

    stage_map: list[int] = []
    for t in range(cert.settling_stage, horizon + 1):
        s_new = len(stage_map)
        vk = run.entry_value_at(cert.k, t)
        if vk is not None and vk > s_new and zone_ok(t, s_new):
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
        new_a_events=reindex(run.a_entry),
        new_b_events=reindex(run.b_entry),
        new_horizon=len(stage_map) - 1,
    )


# ---------------------------------------------------------------------------
# the three-attempt pipeline


@dataclass
class NosupermaxResult:
    attempts: list[AttemptRun]
    outcomes: list[OutcomeReport]
    cert_results: list[tuple[SpeedupCertificate, SpeedupResult]]


def run_attempt(attempt, base, a_events, b_events, horizon):
    if attempt not in (1, 2, 3):
        raise ValueError(f"no such attempt {attempt}")
    return AttemptRun(attempt, base, a_events, b_events, horizon).run()


def run_nosupermax(
    a_events, b_events, horizon, certs, window=None
) -> NosupermaxResult:
    """Attempt 1 always runs; each accepted certificate unlocks the next
    attempt on the re-indexed timeline. A rejected certificate ends the
    pipeline with its rejection recorded."""
    if window is None:
        window = max(1, horizon // 5)
    attempts = [run_attempt(1, -1, a_events, b_events, horizon)]
    outcomes = [detect_outcome(attempts[0], min(window, horizon))]
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
        outcomes.append(detect_outcome(nxt, max(1, min(window, nxt.horizon))))
    return NosupermaxResult(attempts, outcomes, cert_results)


# ---------------------------------------------------------------------------
# verification


def _verify_attempt(run: AttemptRun, checks, caveats):
    tag = f"a{run.attempt}"
    horizon = run.horizon

    # exactness: an independent replay of the scripted events must reproduce
    # the recorded boundary and X history bit for bit
    replay = AttemptRun(
        run.attempt,
        run.base,
        [(e, t) for e, t in run.a_entry.items()],
        [(e, t) for e, t in run.b_entry.items()],
        horizon,
    ).run()
    checks.append(
        CheckResult(
            f"{tag}-boundary-exactness",
            replay.records == run.records,
            "" if replay.records == run.records else "trace diverges from replay",
        )
    )

    deltas_by_stage: dict[int, list[tuple[str, int]]] = {}
    for rec in run.records:
        if rec[0] in ("xin", "xout"):
            deltas_by_stage.setdefault(rec[1], []).append((rec[0], rec[2]))

    sep_viol = []
    disc_viol = []
    shape_viol = []
    x_mem: set[int] = set()
    a_so_far: set[int] = set()
    b_so_far: set[int] = set()
    rec_entries: list[int] = []
    for s1 in range(1, horizon + 1):
        s = s1 - 1
        a_new = run.a_by_stage.get(s1, [])
        b_new = run.b_by_stage.get(s1, [])
        a_so_far.update(a_new)
        b_so_far.update(b_new)
        kept = run.kept_counts[s1 - 1]
        # boundary shape on the recorded kept counts
        if kept > len(rec_entries):
            shape_viol.append((s1, f"kept {kept} exceeds previous length"))
            kept = len(rec_entries)
        if kept < 0:
            if run.base < s:
                shape_viol.append((s1, "sequence empty below the stage"))
            rec_entries = []
        else:
            rec_entries = rec_entries[:kept] + [s]
            seq = [run.base] + rec_entries
            if any(u >= v for u, v in zip(seq, seq[1:])):
                shape_viol.append((s1, "not strictly increasing"))
            if rec_entries[-1] != s:
                shape_viol.append((s1, "does not end at the stage"))
        # change discipline on the recorded deltas
        fresh_cross = [z for z in b_new if z in x_mem] + [
            z for z in a_new if z not in x_mem
        ]
        wmin = min(fresh_cross, default=None)
        for kind, y in deltas_by_stage.get(s1, []):
            ok = (
                (y in x_mem and y in b_so_far)
                or (y not in x_mem and y in a_so_far)
                or (wmin is not None and wmin < y)
                or y == s
            )
            if not ok:
                disc_viol.append((y, s1))
        for kind, y in deltas_by_stage.get(s1, []):
            if kind == "xin":
                x_mem.add(y)
            else:
                x_mem.discard(y)
        # separator property, event-driven
        for y in a_new:
            if y not in x_mem:
                sep_viol.append((y, s1, "A member out of X"))
        for y in b_new:
            if y in x_mem:
                sep_viol.append((y, s1, "B member inside X"))
        for kind, y in deltas_by_stage.get(s1, []):
            if kind == "xout" and y in a_so_far:
                sep_viol.append((y, s1, "A member pushed out of X"))
            if kind == "xin" and y in b_so_far:
                sep_viol.append((y, s1, "B member pulled into X"))

    def fail_first(name, violations, fmt):
        if violations:
            checks.append(CheckResult(name, False, fmt(violations[0])))
        else:
            checks.append(CheckResult(name, True))

    fail_first(
        f"{tag}-separator-stagewise",
        sep_viol,
        lambda v: f"stage {v[1]} element {v[0]} ({v[2]})",
    )
    fail_first(
        f"{tag}-change-discipline",
        disc_viol,
        lambda v: f"element {v[0]} changed at stage {v[1]} with no cause",
    )
    fail_first(f"{tag}-boundary-shape", shape_viol, lambda v: f"stage {v[0]}: {v[1]}")

    w_events, fwd, bwd = derive_w(run)
    fail_first(
        f"{tag}-w-trigger-forward",
        fwd,
        lambda v: f"crossing of {v[0]} at stage {v[1]} without an X change",
    )
    fail_first(
        f"{tag}-w-trigger-backward",
        bwd,
        lambda v: f"X change at {v[0]} stage {v[1]} without a crossing below",
    )


def verify_nosupermax(result: NosupermaxResult):
    checks: list[CheckResult] = []
    caveats: list[str] = []
    for run in result.attempts:
        _verify_attempt(run, checks, caveats)

    for cert, res in result.cert_results:
        run = result.attempts[cert.attempt - 1]
        tag = f"a{cert.attempt}"
        if not res.accepted:
            caveats.append(
                f"certificate for attempt {cert.attempt} rejected: {res.reason}"
                + (
                    f" (stage {res.witness_stage})"
                    if res.witness_stage is not None
                    else ""
                )
            )
            continue
        res2 = apply_speedup(run, cert)
        detail = f"{res2.reason} (stage {res2.witness_stage})"
        if res2.accepted:
            pairs = zip_longest(res.stage_map, res2.stage_map, fillvalue="none")
            diffs = [
                f"map position {i}: recorded {u}, recomputed {v}"
                for i, (u, v) in enumerate(pairs)
                if u != v
            ]
            detail = diffs[0] if diffs else ""
        checks.append(CheckResult(f"{tag}-speedup-bullets", not detail, detail))
        # census: past the settling stage, the zone between the settled point
        # and the live entry holds no permanent hole on the wrong side
        union_final = run.union_final()
        viol = []
        x_ell = res.new_base
        for t in range(cert.settling_stage, run.horizon + 1):
            vk = run.entry_value_at(cert.k, t)
            if vk is None:
                continue
            for y in range(x_ell + 1, vk + 1):
                if y in union_final:
                    continue
                in_x = run.x_member_at(y, t)
                if (cert.parity == 1) == in_x:
                    viol.append((y, t))
                    break
            if viol:
                break
        checks.append(
            CheckResult(
                f"{tag}-settled-zone-census",
                not viol,
                f"permanent hole {viol[0][0]} on the wrong side at stage {viol[0][1]}"
                if viol
                else "",
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
            CheckResult(
                f"{tag}-hole-permission",
                not viol,
                f"hole {viol[0][0]} not placed per parity at stage {viol[0][1]}"
                if viol
                else "",
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
