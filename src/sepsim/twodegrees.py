"""Spectrum construction: disjoint c.e. sets A, B where B encodes a scripted
set C column by column while operator strategies keep every other separator
able to recover a scripted complete set.

Per functional index e, a strategy builds axioms: for each m not yet in the
scripted K and not currently covered, it searches for the least oracle-use
length gamma and witness x (gamma minimized first) such that the functional
converges below x on the current W_e prefix of length gamma, answers 0 at x,
and x clears every column code with both coordinates at most max(e, m). The
witness is blocked from B while the W_e prefix survives; when m later enters
K with the axiom still alive, the witness is promoted into A.

Per column n, a coding strategy fires exactly when n enters C: it puts the
least column code that is neither in A nor blocked into B. The census bound
(at most n^2 of the first n^2 + 1 codes ever unavailable) keeps that firing
possible; its failure is a hard fault, as is a promotion finding its witness
already in B.

Searches run on events. While W_e, B and the usable rules of index e stay
as they are, every oracle answer is fixed and is computed once: a search
resumes its convergence scan where the last one stopped, and an index whose
last search loop settled every eligible number stays quiet until its
eligible bound rises. `_forget(e)` drops both where their inputs change: at
a W_e event, at a stage where a rule of e becomes available, and at every
column firing.
`tests/naive_twodegrees.py` keeps the per-stage reference stepper.

Stage convention: scripted events stamped t are visible at stage t;
enumerations performed at stage s are stamped s + 1.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from functools import cache

from .enumcore import StageSet, pair, unpair
from .errors import HardFault, UsageError
from .functionals import bits_of, evaluate
from .report import CheckResult, first_counterexample
from .scenario import INDEX, by_index, no_rules, width_cap
from .trace import decode_event_log, encode_event_log


class VeAxiom:
    __slots__ = (
        "e", "m", "x", "gamma", "prefix", "created_at", "death_stage", "promoted_at"
    )

    def __init__(self, e, m, x, gamma, prefix, created_at):
        self.e = e
        self.m = m
        self.x = x
        self.gamma = gamma
        self.prefix = prefix
        self.created_at = created_at
        self.death_stage: int | None = None  # first stage the prefix no longer holds
        self.promoted_at: int | None = None

    def alive_at(self, t: int) -> bool:
        return self.created_at <= t and (self.death_stage is None or t < self.death_stage)


@cache
def column_threshold(m_cap: int) -> int:
    """Largest column code with both coordinates bounded by m_cap: witnesses
    must exceed every pair(n, i) with n <= m_cap, i < n^2 + 1. A floor's
    codes rise with i, so each floor's largest is pair(n, n^2)."""
    return max(pair(n, n * n) for n in range(m_cap + 1))


def prefix_string(bits: int, length: int) -> str:
    """The '0'/'1' string of an oracle int's first `length` positions."""
    return bin(bits & ((1 << length) - 1) | 1 << length)[3:][::-1]


class TwoDegreesRun:
    def __init__(self, c_events, k_events, w_events, programs, horizon):
        """c_events/k_events: [(element, stage)]; w_events: {e: [(elem, stage)]};
        programs: {e: OracleProgram}. Scripted stamps must be < horizon for
        every firing to land inside the run."""
        self.horizon = horizon
        self.c = StageSet(c_events, horizon=horizon)
        self.k = StageSet(k_events, horizon=horizon)
        self.w = {e: StageSet(ev, horizon=horizon) for e, ev in w_events.items()}
        self.programs = dict(programs)
        self.scripted = sorted(
            e for e, p in self.programs.items() if len(p) > 0
        )
        self.a = StageSet(horizon=horizon)
        self.b = StageSet(horizon=horizon)
        self.axioms: list[VeAxiom] = []
        self.live: dict[tuple[int, int], VeAxiom] = {}
        self.records: list[tuple] = []
        self.stage = 0
        # W_e as enumerated so far, as an oracle int
        self._w_bits: dict[int, int] = {e: 0 for e in self.w}
        self._k_now: set[int] = set()
        # per e: {use gamma: scan}, each scan held as [next input, diverged,
        # sorted zero-answer inputs outside B]
        self._scans: dict[int, dict[int, list]] = {e: {} for e in self.scripted}
        # per e: the count of eligible numbers m, and the count at which its
        # last loop settled every one of them, None otherwise
        self._bound: dict[int, int] = {e: 0 for e in self.scripted}
        self._quiet: dict[int, int | None] = {e: None for e in self.scripted}
        # per program: its distinct uses ascending, each with the least
        # availability among the rules of that use; per stage, the indexes
        # with a rule that becomes available there
        self._uses: dict[int, list[tuple[int, int]]] = {}
        self._wakes: dict[int, set[int]] = {}
        for e in self.scripted:
            first: dict[int, int] = {}
            for available_at, use, *_ in self.programs[e].compiled_rows():
                first[use] = min(first.get(use, available_at), available_at)
                self._wakes.setdefault(available_at, set()).add(e)
            self._uses[e] = sorted(first.items())

    # -- strategy steps

    def _forget(self, e: int):
        """Drops index e's scans and quiet bound: W_e, B or its usable rules
        changed."""
        self._scans[e].clear()
        self._quiet[e] = None

    def _search(self, e: int, m: int, s: int):
        """Least (gamma, x), gamma first: the functional on the length-gamma
        W_e prefix halts on every input up to x, answers 0 at x, x is neither
        in B nor at or below the column threshold, and x <= s.

        Returns ((gamma, x), capped): capped means every input up to s + 1
        converged for some usable gamma, so the failure may flip once the
        stage bound rises. Until `_forget(e)` runs, W_e, B and the usable
        rules are fixed, so every answer is too: each gamma's convergence
        scan resumes where the last search stopped, and the witness is the
        first recorded zero past the threshold."""
        threshold = column_threshold(max(e, m))
        if threshold >= s:
            return None, True
        scans = self._scans[e]
        prog = self.programs[e]
        capped = False
        for gamma, available_at in self._uses[e]:
            if available_at > s:
                continue
            scan = scans.get(gamma)
            if scan is None:
                scan = scans[gamma] = [0, False, []]
            y, diverged, zeros = scan
            if not diverged and y <= s + 1:
                bits = self._w_bits.get(e, 0) & ((1 << gamma) - 1)
                while y <= s + 1:
                    res = evaluate(prog, bits, gamma, y, s)
                    if res is None:
                        scan[1] = diverged = True
                        break
                    if res[0] == 0 and y not in self.b:
                        zeros.append(y)
                    y += 1
                scan[0] = y
            if not diverged:
                capped = True
            i = bisect_right(zeros, threshold)
            if i < len(zeros) and zeros[i] <= s:
                return (gamma, zeros[i]), False
        return None, capped

    def r_strategy_step(self, e: int, s: int, k_fresh):
        """One stage of the axiom strategy for index e: promotions for the
        numbers k_fresh that entered K at s with a surviving axiom, then
        searches for every small enough uncovered number. A step whose
        eligible bound is that of a loop that settled every number, with
        nothing forgotten since, returns after the promotions."""
        for m in k_fresh:
            ax = self.live.get((e, m))
            if ax is None:
                continue
            if ax.x in self.b:
                raise HardFault(
                    f"promotion witness {ax.x} already enumerated into B"
                    f" (strategy {e}, number {m}, stage {s})"
                )
            ax.promoted_at = s
            self.a.add(ax.x, s + 1)
            self.records.append(("promote", s, e, m, ax.x))
        bound = self._bound[e]
        # pair(n, i) >= n^3, so once e^3 >= s no threshold lies below s
        while bound <= s and e**3 < s and column_threshold(max(e, bound)) < s:
            bound += 1
        self._bound[e] = bound
        if self._quiet[e] == bound:
            return
        settled = True
        for m in range(bound):
            key = (e, m)
            if m in self._k_now or key in self.live:
                continue
            found, capped = self._search(e, m, s)
            if found is None:
                settled = settled and not capped
            else:
                gamma, x = found
                ax = VeAxiom(
                    e=e,
                    m=m,
                    x=x,
                    gamma=gamma,
                    prefix=prefix_string(self._w_bits.get(e, 0), gamma),
                    created_at=s,
                )
                self.axioms.append(ax)
                self.live[key] = ax
                self.records.append(("axiom", s, e, m, x, gamma, ax.prefix))
        self._quiet[e] = bound if settled else None

    def p_strategy_step(self, n: int, s: int):
        """Fires exactly when n enters C: the least unavailable-free column
        slot goes into B. Running out of slots below n^2 + 1 is a hard
        fault."""
        blocked = {ax.x for ax in self.live.values()}
        chosen = None
        for i in range(n * n + 1):
            code = pair(n, i)
            if code in self.a or code in blocked:
                continue
            chosen = i
            break
        if chosen is None:
            raise HardFault(
                f"no free column slot below {n * n + 1} for column {n}"
                f" at stage {s}"
            )
        code = pair(n, chosen)
        self.b.add(code, s + 1)
        self.records.append(("pfire", s, n, chosen, code))
        for e in self.scripted:
            self._forget(e)

    def run_stage(self):
        s = self.stage
        # scripted set growth visible at stage s
        k_fresh = self.k.by_stage.get(s, ())
        self._k_now.update(k_fresh)
        for e in self._wakes.get(s, ()):
            self._forget(e)
        for e, w in self.w.items():
            fresh = w.by_stage.get(s, ())
            if not fresh:
                continue
            self._w_bits[e] |= bits_of(fresh)
            if e in self._scans:
                self._forget(e)
            least = min(fresh)
            for key, ax in list(self.live.items()):
                if key[0] == e and ax.gamma > least:
                    ax.death_stage = s
                    del self.live[key]
                    self.records.append(("kill", s, e, ax.m, ax.x, least))
        for e in self.scripted:
            self.r_strategy_step(e, s, k_fresh)
        for n in self.c.by_stage.get(s, ()):
            self.p_strategy_step(n, s)
        self.stage = s + 1

    def run(self):
        while self.stage < self.horizon:
            self.run_stage()
        return self

    def replay(self, records):
        """Rebuild a finished run from its recorded events instead of
        running the strategies; returns self."""
        axiom_of: dict[tuple, VeAxiom] = {}
        for rec in records:
            kind, s, *fields = rec
            key = tuple(fields[:3])  # (e, m, x) for axiom, kill and promote
            if kind == "axiom":
                axiom_of[key] = VeAxiom(*fields, created_at=s)
                self.axioms.append(axiom_of[key])
            elif kind == "pfire":
                self.b.add(fields[2], s + 1)
            elif key not in axiom_of:
                what = "kill for" if kind == "kill" else "promotion of"
                raise UsageError(f"{what} unknown axiom {key}")
            elif kind == "kill":
                axiom_of[key].death_stage = s
            else:
                axiom_of[key].promoted_at = s
                self.a.add(fields[2], s + 1)
            self.records.append(rec)
        return self


def run_twodegrees(c_events, k_events, w_events, programs, horizon):
    return TwoDegreesRun(c_events, k_events, w_events, programs, horizon).run()


# ---------------------------------------------------------------------------
# censuses and decoding


def cube_census(run: TwoDegreesRun, k: int, s: int) -> tuple[int, int]:
    """(|A ∩ [0, k^3)|, |B ∩ [0, k^3)|) at stage s."""
    cube = k * k * k
    return tuple(
        sum(1 for e, t in side.entry.items() if e < cube and t <= s)
        for side in (run.a, run.b)
    )


def decode_c_from_b(b_members, n: int) -> int:
    """Bounded-quantifier decoding: n is in C iff some column code with
    i <= n^2 + 1 made it into B."""
    return 1 if any(pair(n, i) in b_members for i in range(n * n + 2)) else 0


def column_witnesses(c_members, b_events):
    """Column n of C -> the slot of its first element in B, for the columns
    that have one; `b_events` comes in (stage, element) order, as
    `StageSet.events` gives it.

    The hunt matches recorded elements forward against each column's own
    slot codes (one past the firing bound), so arbitrary recorded values
    never drive the pairing walk."""
    slot_of = {pair(n, i): (n, i) for n in c_members for i in range(n * n + 2)}
    witnesses: dict[int, int] = {}
    for e, _ in b_events:
        if e in slot_of:
            n, i = slot_of[e]
            witnesses.setdefault(n, i)
    return witnesses


def decode_b_from_c(c_members, witnesses, query: int):
    """Two-step decoding of B membership from C: non-column codes answer 0,
    columns outside C answer 0, otherwise wait for the column witness (see
    `column_witnesses`) and compare slots. Returns (bit, settled) where
    settled is False when the column has no witness in B. Only the query
    itself is decoded."""
    decoded = unpair(query)
    if decoded is None:
        return 0, True
    n, j = decoded
    if n not in c_members:
        return 0, True
    witness = witnesses.get(n)
    if witness is None:
        return 0, False
    return (1 if witness == j else 0), True


# ---------------------------------------------------------------------------
# verification


def verify_twodegrees(run: TwoDegreesRun):
    checks: list[CheckResult] = []
    caveats: list[str] = []
    horizon = run.horizon

    # disjointness
    inter = run.a.entry.keys() & run.b.entry.keys()
    checks.append(
        CheckResult(
            "disjoint-ab", not inter, f"element {min(inter)}" if inter else ""
        )
    )

    # axiom bookkeeping recomputed from scripted data
    viol = []
    no_w = StageSet(horizon=horizon)
    for ax in run.axioms:
        if ax.gamma > width_cap(horizon):
            viol.append((ax, "use length beyond any admissible rule"))
            continue
        if run.b.member_at(ax.x, ax.created_at):
            viol.append((ax, "witness already in B"))
        w = run.w.get(ax.e, no_w)
        want_prefix = "".join(
            "1" if w.member_at(i, ax.created_at) else "0" for i in range(ax.gamma)
        )
        if want_prefix != ax.prefix:
            viol.append((ax, "recorded prefix differs from the W snapshot"))
            continue
        deaths = [
            t
            for x, t in w.entry.items()
            if x < ax.gamma and t > ax.created_at
        ]
        want_death = min(deaths) if deaths else None
        if want_death != ax.death_stage:
            viol.append((ax, "death stage differs from the W history"))
    checks.append(
        first_counterexample(
            "block-soundness",
            viol,
            "axiom for ({0.e}, {0.m}) at stage {0.created_at}: {1}",
        )
    )

    # witnesses clear every column code with small coordinates; the census
    # bounds rest on exactly this. Coordinates whose cube already exceeds the
    # horizon cannot belong to any stage-bounded search and are flagged
    # without walking the pairing.
    viol = []
    for ax in run.axioms:
        m_cap = max(ax.e, ax.m)
        if m_cap * m_cap * m_cap > horizon:
            viol.append((ax,))
        elif ax.x <= column_threshold(m_cap):
            viol.append((ax,))
    checks.append(
        first_counterexample(
            "witness-threshold",
            viol,
            "axiom for ({0.e}, {0.m}) carries witness {0.x} at or below the column"
            " threshold",
        )
    )

    # axiom lifecycle: created only while uncovered and outside K; promoted
    # exactly at the K entry of a surviving axiom; nothing after K entry
    viol = []
    by_key: dict[tuple[int, int], list[VeAxiom]] = {}
    for ax in run.axioms:
        by_key.setdefault((ax.e, ax.m), []).append(ax)
    for (e, m), axs in by_key.items():
        axs.sort(key=lambda a: a.created_at)
        k_t = run.k.entry_stage(m)
        for i, ax in enumerate(axs):
            if k_t is not None and ax.created_at >= k_t:
                viol.append((ax, "created after the number entered K"))
            if i + 1 < len(axs):
                nxt = axs[i + 1]
                if ax.death_stage is None or nxt.created_at < ax.death_stage:
                    viol.append((nxt, "created while another axiom lived"))
        promoted = [ax for ax in axs if ax.promoted_at is not None]
        if len(promoted) > 1:
            viol.append((promoted[1], "second promotion for one number"))
        for ax in promoted:
            if k_t is None or ax.promoted_at != k_t:
                viol.append((ax, "promotion away from the K entry stage"))
            if not ax.alive_at(ax.promoted_at):
                viol.append((ax, "promotion of a dead axiom"))
    checks.append(
        first_counterexample("axiom-lifecycle", viol, "axiom for ({0.e}, {0.m}): {1}")
    )

    # promotions land in A, never while the witness sits in B
    viol = []
    for ax in run.axioms:
        if ax.promoted_at is None:
            continue
        if run.b.member_at(ax.x, ax.promoted_at):
            viol.append((ax.x, ax.promoted_at))
        if not run.a.member_at(ax.x, ax.promoted_at + 1):
            viol.append((ax.x, ax.promoted_at))
    checks.append(
        first_counterexample("promotion-clear-of-b", viol, "witness {0} at stage {1}")
    )

    # column coding: one firing per column, at the C entry stage, least
    # eligible slot, slot bound respected. Membership in the scripted C is
    # checked first so corrupted coordinates never drive the pairing walk.
    pfires = [r for r in run.records if r[0] == "pfire"]
    viol = []
    seen_columns = set()
    for _, s, n, i, code in pfires:
        if n in seen_columns:
            viol.append((n, s, "second firing"))
            continue
        seen_columns.add(n)
        if run.c.entry_stage(n) != s:
            viol.append((n, s, "fired away from the C entry stage"))
            continue
        if i >= n * n + 1:
            viol.append((n, s, f"slot {i} outside the bound"))
            continue
        if code != pair(n, i):
            viol.append((n, s, "code does not match the slot"))
        blocked = {
            ax.x for ax in run.axioms if ax.alive_at(s)
        }
        for j in range(i):
            cj = pair(n, j)
            if not run.a.member_at(cj, s) and cj not in blocked:
                viol.append((n, s, f"slot {j} was free but skipped"))
                break
        cij = pair(n, i)
        if run.a.member_at(cij, s) or cij in blocked:
            viol.append((n, s, "chosen slot was unavailable"))
    for n, t in run.c.entry.items():
        if t < run.horizon and n not in seen_columns:
            viol.append((n, t, "column never fired"))
    checks.append(
        first_counterexample("column-coding", viol, "column {0} stage {1}: {2}")
    )

    # census bounds over all stages: per code, unavailability is a union of
    # finitely many stage intervals (A membership from its entry on, plus one
    # interval per axiom); a sweep finds the per-column maximum
    viol_block = []
    axioms_by_x: dict[int, list[VeAxiom]] = {}
    for ax in run.axioms:
        axioms_by_x.setdefault(ax.x, []).append(ax)
    for n in range(0, 11):
        deltas: list[tuple[int, int]] = []
        for i in range(n * n + 1):
            code = pair(n, i)
            spans = []
            ta = run.a.entry_stage(code)
            if ta is not None:
                spans.append((ta, horizon + 1))
            for ax in axioms_by_x.get(code, []):
                end = ax.death_stage if ax.death_stage is not None else horizon + 1
                spans.append((ax.created_at, end))
            spans.sort()
            merged: list[list[int]] = []
            for lo, hi in spans:
                if merged and lo <= merged[-1][1]:
                    merged[-1][1] = max(merged[-1][1], hi)
                else:
                    merged.append([lo, hi])
            for lo, hi in merged:
                deltas.append((lo, 1))
                deltas.append((hi, -1))
        count = 0
        for s, d in sorted(deltas):
            count += d
            if count > n * n and s <= horizon:
                viol_block.append((n, s))
                break
    checks.append(
        first_counterexample(
            "block-census", viol_block, "column {0} over bound at stage {1}"
        )
    )

    # cube censuses are monotone in the stage, so the horizon value is the max
    viol_cube = []
    for k in range(1, 11):
        a_count, b_count = cube_census(run, k, horizon)
        if a_count > k * k or b_count > k:
            viol_cube.append((k, horizon))
    checks.append(
        first_counterexample(
            "cube-census", viol_cube, "cube {0}^3 over bound at stage {1}"
        )
    )

    # round trips at the horizon; query domains are derived forward from the
    # scripted columns so arbitrary recorded values cannot force an unbounded
    # decoding walk
    b_members = set(run.b.entry)
    c_members = {n for n, t in run.c.entry.items() if t <= horizon}
    legit_codes = set()
    for n in c_members | set(range(11)):
        for i in range(n * n + 2):
            legit_codes.add(pair(n, i))
    viol = []
    n_bound = max([10] + [n + 1 for n in c_members])
    for n in range(n_bound + 1):
        if decode_c_from_b(b_members, n) != (1 if n in c_members else 0):
            viol.append((n,))
    checks.append(
        first_counterexample("roundtrip-c-from-b", viol, "column {0} decodes wrongly")
    )

    viol = []
    stray = sorted(b_members - legit_codes)
    if stray:
        viol.append((stray[0], "not a slot of any scripted column"))
    witnesses = column_witnesses(c_members, run.b.events)
    for q in sorted(set(range(1001)) | legit_codes):
        bit, settled = decode_b_from_c(c_members, witnesses, q)
        if not settled:
            entry = run.c.entry_stage(unpair(q)[0])
            if entry is not None and entry < horizon:
                viol.append((q, "witness never appeared"))
            continue
        if bit != (1 if q in b_members else 0):
            viol.append((q, "wrong bit"))
    checks.append(first_counterexample("roundtrip-b-from-c", viol, "query {0}: {1}"))

    caveats.append(
        "axiom coverage and blocking verified at recorded stages; scripted"
        " sets beyond the horizon are out of reach"
    )
    return checks, caveats


# ---------------------------------------------------------------------------
# scenario and trace hooks; the body is (records, {"A", "B": final events})
# in the shared event-log codec

SET_NAMES = re.compile("C|K|W" + INDEX)
PROGRAM_NAMES = re.compile("phi" + INDEX)
FIRST_STAGE = 0
NOTE = "strategies run in index order; coding strategies after axiom ones"
check_schema = audit = no_rules


def check_set(name, events):
    if name == "C":
        for e, _ in events:
            if e > 32:
                raise UsageError(
                    f"set C column {e} exceeds 32; the bounded-quantifier"
                    " decoding walks all of its slots"
                )


def twodegrees_inputs(sc):
    """TwoDegreesRun's constructor arguments, taken from the scenario."""
    w_events = {i: list(sc.sets[n]) for i, n in by_index(sc.sets, "W").items()}
    sets = sc.sets.get("C", []), sc.sets.get("K", [])
    return (*sets, w_events, sc.programs_by_index(), sc.horizon)


def fresh(sc):
    run = run_twodegrees(*twodegrees_inputs(sc))
    return run, (run.records, {"A": run.a.events, "B": run.b.events})


encode = encode_event_log


def decode(body, horizon):
    return decode_event_log(body, ("axiom", "kill", "promote", "pfire"), "AB", horizon)


def check(sc, run, log, detail):
    """A decoded log is checked on a run replayed from its records."""
    if detail is not None:
        run = TwoDegreesRun(*twodegrees_inputs(sc)).replay(log[0])
    checks, caveats = verify_twodegrees(run)
    return [CheckResult("run-exactness", not detail, detail or ""), *checks], caveats
