"""Naive reference for the twodegrees axiom strategy.

`NaiveTwoDegreesRun` steps every strategy at every stage: each search scans
the convergence of every input from 0 and tests every candidate witness
afresh, a search that may still flip (capped) is repeated at the next stage,
and every eligible number is visited at every stage. Only a search that
failed for good is remembered, in a memo the reference keeps for itself and
keys by what the search reads: W_e at the stage, the size of B and the count
of rules of e available by then, all read from the scripted sets and B, not
from the run's own memo. The event-driven `TwoDegreesRun` keeps no such memo
(its resumed scans answer a repeat) and must produce the same records, A and
B on every input.
"""

from rule_rows import EMPTY_PROGRAM
from sepsim.errors import HardFault
from sepsim.functionals import evaluate
from sepsim.twodegrees import TwoDegreesRun, VeAxiom, column_threshold, prefix_string


class NaiveTwoDegreesRun(TwoDegreesRun):
    def __init__(self, *args):
        super().__init__(*args)
        # (e, m) -> the search inputs on which its search failed for good
        self._search_memo: dict[tuple[int, int], tuple] = {}

    def _search(self, e: int, m: int, s: int):
        prog = self.programs.get(e, EMPTY_PROGRAM)
        threshold = column_threshold(max(e, m))
        if threshold >= s:
            return None, True
        capped = False
        w_bits = self._w_bits.get(e, 0)
        for gamma, available_at in self._uses.get(e, ()):
            if available_at > s:
                continue
            bits = w_bits & ((1 << gamma) - 1)
            conv = 0
            while conv <= s + 1:
                res = evaluate(prog, bits, gamma, conv, s)
                if res is None:
                    break
                conv += 1
            if conv > s + 1:
                capped = True
            for x in range(threshold + 1, min(conv, s + 1)):
                if x in self.b:
                    continue
                res = evaluate(prog, bits, gamma, x, s)
                if res is not None and res[0] == 0:
                    return (gamma, x), False
        return None, capped

    def r_strategy_step(self, e: int, s: int, k_fresh):
        prog = self.programs.get(e, EMPTY_PROGRAM)
        for m in self.k.by_stage.get(s, ()):
            if m > s:
                continue
            ax = self.live.get((e, m))
            if ax is None or not ax.alive_at(s) or ax.promoted_at is not None:
                continue
            if ax.x in self.b:
                raise HardFault(
                    f"promotion witness {ax.x} already enumerated into B"
                    f" (strategy {e}, number {m}, stage {s})"
                )
            ax.promoted_at = s
            self.a.add(ax.x, s + 1)
            self.records.append(("promote", s, e, m, ax.x))
        if len(prog) == 0:
            return
        w = self.w.get(e)
        inputs = (
            frozenset(x for x, t in w.entry.items() if t <= s) if w else frozenset(),
            len(self.b.entry),
            sum(1 for row in prog.compiled_rows() if row[0] <= s),
        )
        m = 0
        while m <= s and column_threshold(max(e, m)) < s:
            key = (e, m)
            if (
                m not in self._k_now
                and key not in self.live
                and self._search_memo.get(key) != inputs
            ):
                found, capped = self._search(e, m, s)
                if found is None:
                    if not capped:
                        self._search_memo[key] = inputs
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
            m += 1
