"""Reference stepper for nosupermax's quiet and short steps.

`FullStepRun` steps an attempt with no quiet or short path: every stage
walks `bare` against `scripted` in `boundary_update`, builds the list of
positions whose side can change and hands it to `x_update`, and every
boundary reset sums, deletes and reopens the dropped intervals' counts.
`AttemptRun` must leave the same records in the same order, and the same
boundary and interval counts, after every stage.
"""

from bisect import bisect_left, bisect_right, insort

from sepsim.nosupermax import AttemptRun, boundary_update, trigger_prefix, x_update


class FullStepRun(AttemptRun):
    def _reset_counts(self, kept, last, s):
        if kept < 0:
            self.c_in, self.c_out, self.bare, self.misplaced = [], [], [], []
            return
        a, b, x = self.a_now, self.b_now, self.x
        counts = [0, 0]
        for y in range(last + 1, s + 1):
            if y not in a and y not in b:
                counts[y in x] += 1
        c_out, c_in = counts
        if kept < len(self.c_in):
            c_in += sum(self.c_in[kept:])
            c_out += sum(self.c_out[kept:])
            del self.c_in[kept:], self.c_out[kept:]
            del self.bare[bisect_left(self.bare, kept) :]
            del self.misplaced[bisect_left(self.misplaced, kept) :]
        self._open_last(c_in, c_out)

    def step(self):
        s1 = len(self.kept_counts) + 1
        s = s1 - 1
        a_new = self.a.by_stage.get(s1, ())
        b_new = self.b.by_stage.get(s1, ())
        base, entries, x = self.base, self.entries, self.x
        a_now, b_now = self.a_now, self.b_now
        j = len(entries)
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
        kept = boundary_update(base, entries, s1, m, self.bare, self.scripted)
        self._reset_counts(kept, last, s)
        self._record_boundary(s1, kept)
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
