"""Naive reference for upclosure's block agreement and boundary recovery.

The decoders as first written: `_agreement_window` rebuilds a block's window
for one side and returns at the first position that never agrees;
`recover_m_next` rebuilds the (m_n, x] windows for every x at every
candidate stage, rescans every earlier boundary's f-interval at every
stage and walks the operators' agreement prefix afresh (`agree_prefix`) at
every stage it reaches. `upclosure`'s one window fold, its carried windows and its per-call
cover stages must give the same results and the same errors on every input.
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


def recover_m_next(z, a, b, gamma, delta, f, m_prefix, horizon, table):
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
