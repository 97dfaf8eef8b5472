"""Naive reference for the anticomplete scheduler and its sigma search.

`NaiveAnticompleteRun` steps every strategy with index < s at every stage s,
builds every strategy it visits, re-initializes a strategy by building it
anew, and steps a preservation strategy as the construction states it: act
once per initialization, at the first stage past k. Its top is the largest
field of any record so far, each field noted on its own, and a claim is
top + 1. It searches afresh at every step of a diagonalization strategy, with
`sigma_search` below: the search as first written, which checks each guard
one (position, bit) pair at a time against a dict of the forced bits. The
event-driven `AnticompleteRun` and the mask-based search must produce the
same records, A, B and D on every input.
"""

from rule_rows import EMPTY_PROGRAM
from sepsim.anticomplete import AnticompleteRun, RStrategyState, apply_sigma
from sepsim.functionals import bits_of, evaluate


def sigma_search(prog, n, s, a_mem, b_mem, d_mem):
    """The least sigma and the wake, as `sepsim.anticomplete.sigma_search`
    defines them, found one guard pair at a time against dicts of bits."""
    if n >= prog.contiguous_cover:
        return None, None
    forced = {}
    for x in a_mem:
        if x < s:
            forced[x] = 1
    for x in b_mem:
        if x < s:
            forced[x] = 0

    rules_for = {}  # input -> its rules, in rule order
    for r in prog.rules:
        rules_for.setdefault(r.input, []).append(r)

    # Candidate guards per needed input, filtered by required output,
    # compatibility with the forced bits, availability and width; the rules
    # that only fail the last two set the wake.
    constraints = []
    wake = None
    for y in range(n + 1):
        want = 1 if y in d_mem else 0
        cands = []
        y_wake = None
        satisfied = False
        for r in rules_for.get(y, ()):
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

    assigned = {}

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
        comp_cons = {}
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


class NStrategyState:
    __slots__ = ("k", "satisfied_at")

    def __init__(self, k: int):
        self.k = k
        self.satisfied_at: int | None = None


def n_strategy_step(st, s, run) -> bool:
    """Acts (once per initialization) at the first stage s > k, restraining
    everything at or below s by imposing restraint s + 1."""
    if st.satisfied_at is None and s > st.k:
        st.satisfied_at = s
        run._emit(("nact", s, st.k, s + 1), s + 1)
        return True
    return False


def naive_r_strategy_step(st, s, run) -> bool:
    """`r_strategy_step` with the search above; it keeps no wake."""
    prog = run.programs.get(st.e, EMPTY_PROGRAM)
    if st.claimed_n is None:
        n = st.claimed_n = run.top + 1
        run._emit(("rclaim", s, st.e, n), None)
    if len(prog) == 0:
        return False
    sigma, _ = sigma_search(
        prog, st.claimed_n, s, run.a.entry, run.b.entry, run.d.entry
    )
    if sigma is None:
        return False
    m, new_a, new_b = apply_sigma(sigma, st.restraint, run.a.entry, run.b.entry)
    for x in new_a:
        run.a.add(x, s + 1)
    for x in new_b:
        run.b.add(x, s + 1)
    run.d.add(st.claimed_n, s + 1)
    run._emit(("ract", s, st.e, st.claimed_n, st.restraint, m, new_a, new_b), None)
    st.claimed_n = None
    return True


class NaiveAnticompleteRun(AnticompleteRun):
    def __init__(self, programs, horizon):
        super().__init__(programs, horizon)
        self.nstates = []

    def _materialize(self, idx):
        base = self._last_act_stage + 1
        while 2 * len(self.nstates) <= idx:
            self.nstates.append(NStrategyState(k=len(self.nstates)))
        while 2 * len(self.rstates) + 1 <= idx:
            self.rstates.append(RStrategyState(e=len(self.rstates), restraint=base))

    def _reset(self, idx, s):
        if idx % 2 == 0:
            self.nstates[idx // 2] = NStrategyState(k=idx // 2)
        else:
            self.rstates[idx // 2] = RStrategyState(e=idx // 2, restraint=s + 1)

    def _emit(self, record, top):
        self.records.append(record)
        for v in record[1:]:
            for x in v if isinstance(v, tuple) else (v,):
                if isinstance(x, int) and x > self.top:
                    self.top = x

    def _visit(self, idx, s, reset):
        self._materialize(idx)
        if reset:
            self._reset(idx, s)
        if idx % 2 == 0:
            acted = n_strategy_step(self.nstates[idx // 2], s, self)
        else:
            acted = naive_r_strategy_step(self.rstates[idx // 2], s, self)
        if acted:
            self._last_act_stage = s
        return acted

    def run_stage(self):
        s = self.stage
        floor = None
        for idx in range(s):
            acted = self._visit(idx, s, reset=(floor is not None))
            if acted and floor is None:
                floor = idx
        self.stage = s + 1
