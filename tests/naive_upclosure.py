"""Naive reference for upclosure's case split, boundaries, block agreement
and boundary recovery.

The functions as first written: `_agreement_window` rebuilds a block's
window for one side and returns at the first position that never agrees;
`recover_m_next` rebuilds its candidate stages (`candidate_stages`) from the
table's sets and the operators and horizon it is given on every call, rebuilds the (m_n, x] windows for
every x at every candidate stage, rescans every earlier boundary's
f-interval at every stage and walks the operators' agreement prefix afresh
(`agree_prefix`) at every stage it reaches; `classify_case` and the
case-2 `m_sequence` take the sets themselves and scan each interval they
test for a point outside the union (`_covered`). `upclosure`'s one window
fold, its carried windows, its table's stage list and cover stages, and
the gap list and covered points it works out once per run must give the
same results and the same errors on every input.
"""


def _agreement_window(z, stage_of, block, positive):
    """Stages s at which z matches the indicator run 'position entered by s'
    (positive=True: match means bit 1 once entered; False: bit 0 once entered).

    Returns a closed interval [lo, hi] in stage numbers, possibly empty
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


def decode_block(z, a, b, m_n, m_n1, horizon):
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
    block = range(m_n + 1, m_n1 + 1)
    wa = _agreement_window(z, a.entry_stage, block, positive=True)
    wb = _agreement_window(z, b.entry_stage, block, positive=False)
    lo = max(wa[0], wb[0])
    hi = min(wa[1], wb[1], horizon)
    return range(lo, hi + 1) if lo <= hi else range(0)


def agree_prefix(table, s):
    """The table's agree_prefix(s) walked afresh, w from 0, on every call."""
    w = 0
    while w < table.width and table._ok(table._gamma, w, s) and table._ok(
        table._delta, w, s
    ):
        w += 1
    return w


def candidate_stages(table, gamma, delta, horizon):
    """The stages the recovery search tries, built afresh from the table's
    sets and the given operators on every call: 0, every entry stage of A
    and B and every rule availability, up to the horizon, in order."""
    stages = {0, *table.a.entry.values(), *table.b.entry.values()}
    for op in (gamma, delta):
        for r in op.program.rules:
            stages.add(r.available_at)
    return sorted(t for t in stages if t <= horizon)


def recover_m_next(z, m_prefix, table, gamma, delta, horizon):
    """`upclosure.recover_m_next`, given also the operators and horizon the
    table was built from."""
    a, b, f = table.a, table.b, table.f
    m_n = m_prefix[-1]
    n = len(m_prefix) - 1
    windows = []
    for i in range(n):
        block = range(m_prefix[i] + 1, m_prefix[i + 1] + 1)
        wa = _agreement_window(z, a.entry_stage, block, positive=True)
        wb = _agreement_window(z, b.entry_stage, block, positive=False)
        windows.append((wa, wb))

    for s in candidate_stages(table, gamma, delta, horizon):
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
        prefix = agree_prefix(table, s)
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


def _covered(x, f, union):
    """(x, f(x)] fully inside the union."""
    return all(y in union for y in range(x + 1, f(x) + 1))


def classify_case(a, b, f, horizon, declared):
    union = a.snapshot(horizon) | b.snapshot(horizon)
    limit = min(f.domain, horizon)
    covered = [x for x in range(limit) if _covered(x, f, union)]
    if declared.tag == 1:
        return not any(x >= declared.k for x in covered)
    return len(covered) >= -(-horizon // 10)


def m_sequence(a_mem, b_mem, f, count):
    """The case-2 boundaries and the first missing index, as a tuple."""
    if count <= 0:
        return [], None
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
            return values, len(values)
        values.append(nxt)
    return values, None
