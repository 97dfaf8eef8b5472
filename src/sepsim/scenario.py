"""Scenario files: the complete, seed-free description of one experiment.

Line-delimited text, one record per line, integers in decimal:

    sepsim-scenario 1
    construction <anticomplete|upclosure|nosupermax|twodegrees>
    horizon <n>
    case <1 k|2>                       (upclosure only)
    cert <attempt> <ell> <k> <odd|even> <settling>   (nosupermax, up to two)
    set <NAME> <element> <stage>
    bound f <x> <f(x)>                 (upclosure only)
    rule <prog> <input> <output> <use> <avail> <npairs> [<pos> <bit>]...
    end

Set names: upclosure uses A, B, C; nosupermax uses A, B; twodegrees uses C,
K, W0, W1, ... Program names: anticomplete and twodegrees use phi0, phi1,
...; upclosure uses gamma and delta. An index is ASCII decimal without a
leading zero (INDEX). '#' starts a comment.

Scripted event stages must stay below the horizon so every event is visible
to an executed stage; nosupermax events additionally start at stage 1. Set
elements, bound table values and rule uses exceed the horizon by at most
PAST_HORIZON (4096), the one cap `width_cap` states.
Hypothesis audits run at load time: upclosure scenarios must have disjoint
scripted sides, a hole below the horizon, and operators that compute each
side from the other bit by bit; nosupermax scenarios must script disjoint
sides.

A record with more or fewer tokens than its kind takes reads `line N:
record <tokens>: <n> tokens, expected <m>`. The fixed-count set, bound and
cert records are read on direct paths, the other kinds but a rule through
RECORDS, their table of token types.

The text is read once, into what the schema check, the audit, the run and
the verifier use. A rule line becomes its compiled row (see
`functionals.OracleProgram`) as it is read: each distinct guard text is
parsed and compiled to its (mask, want) pair and top position once, and no
OracleRule is built. As it reads, the parser notes the first line at which
the text departs from canonical form: records out of canonical order, a
repeated or missing header record, a blank or comment line, whitespace other
than single spaces, or an integer not in canonical decimal (a sign, a
leading zero, an underscore or non-ASCII digits). A Scenario parsed from
canonical text keeps that text, and canonical() returns it without
rendering; a scenario file may still carry comments and any record order.
The scenario's noncanonical_line names that line, so that a trace can refuse
an embedded text that is not canonical.

The grammar, the canonical form and the shared checks live here; the rest
is read from the construction's module (`construction_module`): SET_NAMES
and PROGRAM_NAMES (full-match patterns, or None for no names), FIRST_STAGE
(least event stage), check_set(name, events) and check_schema(sc) (its own
rules, after the shared ones) and audit(sc) (its hypothesis audit).
"""

from __future__ import annotations

import importlib
import re
from itertools import chain
from operator import itemgetter
from types import MappingProxyType

from .enumcore import StageSet
from .errors import UsageError
from .functionals import (
    OracleProgram,
    OracleRule,
    UseBound,
    UseBoundedOperator,
    checked_guard,
    guard_mask,
    rows_in_order,
)
from .records import count_error, read_record, record_table

CONSTRUCTIONS = ("anticomplete", "upclosure", "nosupermax", "twodegrees")


# the index in a name such as phi3 or W12, so that each index has one name
INDEX = "(0|[1-9][0-9]*)"


def by_index(names, prefix) -> dict[int, str]:
    """Index -> name, over the names that are the prefix and an INDEX."""
    pattern = re.compile(prefix + INDEX)
    return {int(m[1]): m[0] for m in map(pattern.fullmatch, names) if m}


def construction_module(name: str):
    """The module of the named construction, imported on first use so that a
    process loads only the construction it runs."""
    if name not in CONSTRUCTIONS:
        raise UsageError(f"unknown construction {name}")
    return importlib.import_module(f"{__package__}.{name}")


def no_rules(*_):
    """A hook of a construction that adds nothing to the shared checks."""


DEFAULT_HORIZON = 1000
MAX_HORIZON = 10_000  # to be raised once every construction is linear in h
# how far past the horizon a set element, a bound table value or a rule use
# may reach: oracle ints and bit tables are as wide as the largest of them
PAST_HORIZON = 4096


def width_cap(horizon: int) -> int:
    """The largest set element, bound table value or rule use allowed at
    that horizon; never below PAST_HORIZON."""
    return horizon + PAST_HORIZON


class Scenario:
    """One experiment. A scenario parsed from canonical text keeps that text,
    and canonical() returns it; a built one renders its text on each call.

    Assigning any field drops the kept text, the stage sets and the agreement
    table, and assigning the rules or the bound table drops the programs and
    operators built from them. The fields of a parsed scenario are read-only
    containers (tuples, and read-only mappings for sets and rules), so no
    change can bypass an assignment."""

    __slots__ = (
        "construction", "horizon", "sets", "_rules", "bound_table", "case", "certs",
        "_rows", "_text", "_noncanonical_line", "_programs", "_operators", "_bound",
        "_stage_sets", "_table",
    )

    def __init__(
        self,
        construction: str,
        horizon: int = DEFAULT_HORIZON,
        sets: dict[str, list[tuple[int, int]]] | None = None,
        rules: dict[str, list[OracleRule]] | None = None,
        bound_table: list[tuple[int, int]] | None = None,
        case=None,
    ):
        self._text = None  # the canonical text, kept by parse_scenario
        self._noncanonical_line = None
        # program name -> (input -> its rows, each rule's input), in rule
        # order, as parse_scenario reads them; None in a built scenario
        self._rows = None
        # program name -> its OracleProgram and UseBoundedOperator, filled by
        # program() and operator(); set name -> its StageSet, by stage_set();
        # the use bound and the table, by use_bound() and agreement_table()
        self._programs: dict[str, OracleProgram] = {}
        self._operators: dict[str, UseBoundedOperator] = {}
        self._stage_sets: dict[str, StageSet] = {}
        self._bound = self._table = None
        self.construction = construction
        self.horizon = horizon
        self.sets = {} if sets is None else sets
        self.rules = {} if rules is None else rules
        self.bound_table = [] if bound_table is None else bound_table
        self.case = case  # an upclosure.CaseTag, in upclosure scenarios only
        self.certs = []  # nosupermax.SpeedupCertificates, at most two

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name[0] != "_":  # a field: what was derived from it is stale
            self._text = self._table = None
            self._stage_sets.clear()
            if name in ("rules", "bound_table"):
                self._programs.clear()
                self._operators.clear()
                self._bound = None

    @property
    def rules(self):
        """Program name -> its rules; a parsed scenario's are derived from its
        programs, as a read-only mapping of tuples."""
        if self._rows is None:
            return self._rules
        return MappingProxyType({name: self.program(name).rules for name in self._rows})

    @rules.setter
    def rules(self, rules):
        self._rules = rules
        self._rows = None

    @property
    def noncanonical_line(self):
        """The number of the first line at which the text this scenario was
        parsed from departs from canonical form; None when that text was
        canonical, or when the scenario was built."""
        return self._noncanonical_line

    def _program_names(self):
        """The names of the programs that have rules, without building any."""
        return self._rules.keys() if self._rows is None else self._rows.keys()

    # -- canonical form

    def canonical(self) -> str:
        """The text parsed, when it was canonical and no field has changed
        since; else the text rendered from the fields."""
        text = self._text
        return self._render() if text is None else text

    def _render(self) -> str:
        lines = ["sepsim-scenario 1", f"construction {self.construction}"]
        lines.append(f"horizon {self.horizon}")
        if self.case is not None:
            if self.case.tag == 1:
                lines.append(f"case 1 {self.case.k}")
            else:
                lines.append("case 2")
        for c in self.certs:
            parity = "odd" if c.parity == 1 else "even"
            lines.append(
                f"cert {c.attempt} {c.ell} {c.k} {parity} {c.settling_stage}"
            )
        for name in sorted(self.sets):
            for e, t in sorted(self.sets[name], key=lambda p: (p[1], p[0])):
                lines.append(f"set {name} {e} {t}")
        for x, fx in sorted(self.bound_table):
            lines.append(f"bound f {x} {fx}")
        texts = {}  # guard -> " <npairs> <pos> <bit>...", rendered once
        rules = self.rules
        for prog in sorted(rules):
            rows = []
            for r in rules[prog]:
                g = r.guard
                text = texts.get(g)
                if text is None:
                    text = f" {len(g)}"
                    for p, b in g:
                        text += f" {p} {b}"
                    texts[g] = text
                rows.append((r.input, r.use, r.available_at, g, r.output, text))
            rows.sort()  # equal keys render equal lines
            for x, use, avail, _, out, text in rows:
                lines.append(f"rule {prog} {x} {out} {use} {avail}{text}")
        texts.clear()  # the lines hold copies; free the texts before the join
        lines += ("end", "")
        return "\n".join(lines)

    # -- typed views

    def stage_set(self, name: str) -> StageSet:
        """The named set as a StageSet at the horizon, built once like
        program(). Only upclosure calls it, and its audit, pipeline and check
        share each set, so none may `add` to it."""
        staged = self._stage_sets.get(name)
        if staged is None:
            staged = StageSet(self.sets.get(name, []), horizon=self.horizon)
            self._stage_sets[name] = staged
        return staged

    def agreement_table(self):
        """upclosure's WttAgreementTable of A, B, gamma, delta, f and the
        horizon, built once like program() for the case-2 audit and pipeline;
        it imports upclosure only when called."""
        if self._table is None:
            from .upclosure import WttAgreementTable
            sets = self.stage_set("A"), self.stage_set("B")
            ops = self.operator("gamma"), self.operator("delta")
            self._table = WttAgreementTable(*sets, *ops, self.use_bound(), self.horizon)
        return self._table

    def program(self, name: str) -> OracleProgram:
        """The program of that name, empty when no rule names it. Each is
        built once per Scenario on first access, as are the operators, bound,
        sets and table, and shared by the schema check, the audit, the run and
        the verifier; a built scenario's fields are fixed from then on."""
        prog = self._programs.get(name)
        if prog is None:
            if self._rows is None:
                prog = OracleProgram(self._rules.get(name, ()))
            else:
                rows = self._rows.get(name)
                prog = OracleProgram(rows=rows) if rows else OracleProgram()
            self._programs[name] = prog
        return prog

    def programs_by_index(self) -> dict[int, OracleProgram]:
        names = by_index(self._program_names(), "phi")
        return {i: self.program(name) for i, name in names.items()}

    def use_bound(self) -> UseBound:
        """The bound table as a UseBound, built once per Scenario."""
        bound = self._bound
        if bound is None:
            table = sorted(self.bound_table)
            if [x for x, _ in table] != list(range(len(table))):
                raise UsageError("bound table must cover an initial segment")
            bound = self._bound = UseBound(table=tuple(fx for _, fx in table))
        return bound

    def operator(self, name: str) -> UseBoundedOperator:
        """The program of that name under the use bound, built once per
        Scenario like program(); raises ValueError as UseBoundedOperator."""
        op = self._operators.get(name)
        if op is None:
            op = UseBoundedOperator(program=self.program(name), bound=self.use_bound())
            self._operators[name] = op
        return op

    def _use_over(self, name: str, cap: int):
        """The first use past the cap among the rules of that program, in
        rule order, without building it; None when there is none."""
        if self._rows is None:
            uses = [r.use for r in self._rules[name]]
        else:
            by_input, order = self._rows[name]
            if max(map(itemgetter(1), chain.from_iterable(by_input.values()))) <= cap:
                return None
            uses = (row[1] for _, row in rows_in_order(by_input, order))
        return next((use for use in uses if use > cap), None)


def _schema_error(msg, lineno=None):
    loc = None if lineno is None else f"line {lineno}"
    return UsageError(msg, location=loc)


# the types of the tokens after the kind of each scenario record that has no
# path of its own, so its token count too: a trailing token would vanish
# from the canonical text and the digest. `case 1 <k>` is the case record
# whose tag reads 1.
RECORDS = record_table({
    "construction": (str,),
    "horizon": (int,),
    "case": (int,),
    "end": (),
})
CASE_1 = record_table({"case": (int, int)})

# each record kind's rank in canonical order; see _follows
RANKS = {
    "construction": 0, "horizon": 1, "case": 2, "cert": 3, "set": 4, "bound": 5,
    "rule": 6, "end": 7,
}
CERT, RULE = 3, 6


def _follows(rank: int, r: int) -> bool:
    """Whether a record of rank r may come after one of rank `rank` (-1 at
    the start) in canonical text: construction, horizon, at most one case,
    then certs, sets, bounds and rules, then end."""
    if r < 2:
        return r == rank + 1
    return rank >= 1 and (r > rank or CERT <= r == rank <= RULE)


# no guard position of a valid scenario reaches this far; a wider guard is
# not compiled, since its rule's use fails the width cap before any program
# is built
WIDEST = MAX_HORIZON + PAST_HORIZON
INVALID = float("inf")  # the top position of a malformed guard


def _read_guard(flat):
    """(flat, top, mask, want, in order) for a rule's guard as read, its
    positions and bits alternating in `flat`: top is the largest position,
    -1 when there is none, so that a rule of use u is use-honest exactly
    when top < u; INVALID when a position repeats or an entry is bad, so
    that every rule with the guard is refused. in order tells whether the
    positions rose."""
    mask = want = 0
    last = -1
    it = iter(flat)
    for p, b in zip(it, it):
        if p <= last or p > WIDEST or (b != 0 and b != 1):
            break
        bit = 1 << p
        mask |= bit
        if b:
            want |= bit
        last = p
    else:
        return flat, last, mask, want, True
    it = iter(flat)
    try:
        guard = checked_guard(zip(it, it))
    except ValueError:
        return flat, INVALID, None, None, False
    top = guard[-1][0] if guard else -1
    if top > WIDEST:
        return flat, top, None, None, False
    return (flat, top, *guard_mask(guard), False)


# characters canonical text never holds: other whitespace and line breaks,
# comments, and an integer's sign or underscore, both of which int() reads
_NEVER = ("\r", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "#", "+", "_")
_LEADING_ZERO = re.compile(r" 0[0-9]")


def _respelled_line(text: str, spaces: int):
    """None when the text spells its tokens as canonical text does, given
    the count of spaces between the tokens of its records: ASCII only,
    single spaces, a final newline and integers in canonical decimal.
    Otherwise the number, counted in newlines, of the first line that
    canonical text could not spell so; a text without a final newline
    departs at its last line."""
    if (
        text.endswith("\n")
        and text.isascii()
        and not any(c in text for c in _NEVER)
        and (text.find("-", 7) < 0 or " -0" not in text)  # the header holds one
        and not _LEADING_ZERO.search(text)
        and text.count(" ") == spaces
    ):
        return None
    lines = text.split("\n")
    for lineno, line in enumerate(lines[:-1], start=1):
        padded = " " + line
        if (
            line != " ".join(line.split()) or not line or not line.isascii()
            or any(c in line for c in "#+_")
            or " -0" in padded or _LEADING_ZERO.search(padded)
        ):
            return lineno
    return len(lines) if lines[-1] else None


def parse_scenario(text: str) -> Scenario:
    """Parse and schema-validate; hypothesis audits are separate. A canonical
    text is kept, for canonical() to return; otherwise the scenario's
    noncanonical_line names its first line that departs from canonical
    form."""
    lines = text.splitlines()
    if not lines or lines[0].split("#")[0].strip() != "sepsim-scenario 1":
        raise _schema_error("missing or unsupported scenario header", 1)
    construction = ""
    horizon = DEFAULT_HORIZON
    case = None
    certs = []
    sets: dict[str, list[tuple[int, int]]] = {}
    bounds = []
    programs: dict[str, tuple[dict[int, list], list[int]]] = {}
    # guard text -> _read_guard's tuple; many rules of a program share a guard
    guards = {}
    # token -> its int, for the tokens of rule lines, which repeat
    num: dict[str, int] = {}
    get = num.get
    ended = False
    # canonical form: the first line that departs from it, the rank of the
    # last record, the order keys of the last set, bound and rule, and the
    # guard pairs of the rules read
    departs = None if lines[0] == "sepsim-scenario 1" else 1
    pairs_read = 0
    rank = -1
    set_name = prog_name = ""
    bound_key = rule_key = ()
    set_t = set_e = 0
    # rule records outnumber all others, so they come first, then sets; only
    # a rule reads past the seventh field (its guard)
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = (raw.split("#")[0] if "#" in raw else raw).split(None, 7)
        if not parts:
            departs = departs or lineno  # a blank or comment line
            continue
        if ended:
            raise _schema_error("content after end record", lineno)
        kind = parts[0]
        r = RANKS.get(kind, rank)  # an unknown kind is refused below
        if r != rank or r < CERT:  # a new kind, or construction, horizon or case again
            if not _follows(rank, r):
                departs = departs or lineno
            rank = r
        try:
            if kind == "rule":
                name = parts[1]
                # a token read before converts through `num`, any other
                # through int(), in the order of their errors: the pair
                # count, the guard, then input, output, use and availability
                y, out = get(parts[2]), get(parts[3])
                use, avail, npairs = get(parts[4]), get(parts[5]), get(parts[6])
                if npairs is None:
                    npairs = num[parts[6]] = int(parts[6])
                tail = parts[7] if len(parts) == 8 else ""
                guard = guards.get(tail)
                if guard is None:
                    nums = tail.split()
                    if len(nums) == 2 * npairs:
                        flat = tuple(map(get, nums))
                        if None in flat:
                            flat = tuple(map(int, nums))
                            num.update(zip(nums, flat))
                        guard = guards[tail] = _read_guard(flat)
                if guard is None or len(guard[0]) != 2 * npairs:
                    raise _schema_error("guard pair count mismatch", lineno)
                flat, top, mask, want, in_order = guard
                pairs_read += npairs
                if y is None:
                    y = num[parts[2]] = int(parts[2])
                if out is None:
                    out = num[parts[3]] = int(parts[3])
                if use is None:
                    use = num[parts[4]] = int(parts[4])
                if avail is None:
                    avail = num[parts[5]] = int(parts[5])
                if not (top < use and y >= 0 and avail >= 0 and (out == 0 or out == 1)):
                    it = iter(flat)
                    OracleRule(zip(it, it), y, out, use, avail)  # raises what it breaks
                if name != prog_name:
                    if name < prog_name:
                        departs = departs or lineno
                    by_input, order = programs.setdefault(name, ({}, []))
                    prog_name, rule_key = name, ()
                key = (y, use, avail, flat, out)
                if key < rule_key or not in_order:
                    departs = departs or lineno
                rule_key = key
                rows = by_input.get(y)
                if rows is None:
                    by_input[y] = [(avail, use, mask, want, out)]
                else:
                    rows.append((avail, use, mask, want, out))
                order.append(y)
            elif kind == "set":
                if len(parts) != 4:
                    raise count_error(parts, 4, lineno)
                name, e, t = parts[1], int(parts[2]), int(parts[3])
                if name != set_name:
                    events = sets.setdefault(name, [])
                    if name < set_name:
                        departs = departs or lineno
                    set_name = name
                elif t < set_t or t == set_t and e < set_e:
                    departs = departs or lineno
                set_t, set_e = t, e
                events.append((e, t))
            elif kind == "bound":
                if len(parts) != 4:
                    raise count_error(parts, 4, lineno)
                fname, x, fx = parts[1], int(parts[2]), int(parts[3])
                if fname != "f":
                    raise _schema_error("only the bound named f exists", lineno)
                key = (x, fx)
                if key < bound_key:
                    departs = departs or lineno
                bound_key = key
                bounds.append(key)
            elif kind == "cert":
                if len(parts) != 6:
                    raise count_error(parts, 6, lineno)
                attempt, ell, k = int(parts[1]), int(parts[2]), int(parts[3])
                word, settling = parts[4], int(parts[5])
                parity = {"odd": 1, "even": 0}.get(word)
                if parity is None:
                    raise _schema_error(f"bad parity word {word}", lineno)
                from .nosupermax import SpeedupCertificate
                certs.append(SpeedupCertificate(attempt, ell, k, parity, settling))
            else:
                table = RECORDS
                if kind == "case" and len(parts) > 1 and int(parts[1]) == 1:
                    table = CASE_1
                fields = read_record(parts, table, lineno=lineno)
                if fields is None:
                    raise _schema_error(f"unknown record {kind}", lineno)
                if kind == "construction":
                    if fields[0] not in CONSTRUCTIONS:
                        raise _schema_error(f"unknown construction {fields[0]}", lineno)
                    construction = fields[0]
                elif kind == "horizon":
                    horizon = fields[0]
                elif kind == "case":
                    from .upclosure import CaseTag
                    case = CaseTag(*fields)
                else:  # end
                    ended = True
        except (ValueError, IndexError) as exc:
            raise _schema_error(f"malformed {kind} record: {exc}", lineno)
    if not ended:
        raise _schema_error("missing end record")
    if not construction:
        raise _schema_error("missing construction record")
    sc = Scenario(
        construction,
        horizon,
        sets=MappingProxyType({name: tuple(events) for name, events in sets.items()}),
        bound_table=tuple(bounds),
        case=case,
    )
    sc.certs = tuple(certs)
    sc._rows = programs
    validate_schema(sc)
    # the spaces between the tokens of each record: one fewer than its tokens
    spaces = 3 + (0 if case is None else 3 - case.tag)  # `case 1 <k>` or `case 2`
    spaces += 5 * len(certs) + 3 * len(bounds)
    spaces += 3 * sum(map(len, sets.values())) + 2 * pairs_read
    spaces += 6 * sum(len(order) for _, order in programs.values())
    respelled = _respelled_line(text, spaces)
    if respelled is not None and (departs is None or respelled < departs):
        departs = respelled
    sc._noncanonical_line = departs
    if departs is None:
        sc._text = text
    return sc


def validate_schema(sc: Scenario):
    if sc.horizon < 1:
        raise _schema_error("horizon must be positive")
    if sc.horizon > MAX_HORIZON:
        raise _schema_error(f"horizon {sc.horizon} exceeds {MAX_HORIZON}")
    module = construction_module(sc.construction)
    cap = width_cap(sc.horizon)
    for name, events in sc.sets.items():
        if module.SET_NAMES is None or not module.SET_NAMES.fullmatch(name):
            raise _schema_error(
                f"set {name} not allowed for {sc.construction}"
            )
        seen = set()
        for e, t in events:
            if e < 0:
                raise _schema_error(f"set {name} element {e} negative")
            if e > cap:
                raise _schema_error(
                    f"set {name} element {e} exceeds the horizon by more than"
                    f" {PAST_HORIZON}"
                )
            if t < module.FIRST_STAGE or t > sc.horizon - 1:
                raise _schema_error(
                    f"set {name} event ({e}, {t}) outside stages"
                    f" [{module.FIRST_STAGE}, {sc.horizon - 1}]"
                )
            if e in seen:
                raise _schema_error(f"set {name} element {e} enters twice")
            seen.add(e)
        module.check_set(name, events)
    for name in sc._program_names():
        if module.PROGRAM_NAMES is None or not module.PROGRAM_NAMES.fullmatch(name):
            raise _schema_error(
                f"program {name} not allowed for {sc.construction}"
            )
        use = sc._use_over(name, cap)
        if use is not None:
            raise _schema_error(
                f"program {name}: rule use {use} exceeds the horizon by more"
                f" than {PAST_HORIZON}"
            )
        try:
            sc.program(name)
        except ValueError as exc:
            raise _schema_error(f"program {name}: {exc}")
    if sc.construction != "upclosure":
        if sc.case is not None:
            raise _schema_error("only upclosure scenarios declare a case")
        if sc.bound_table:
            raise _schema_error("only upclosure scenarios carry a bound table")
    module.check_schema(sc)
    if sc.certs and sc.construction != "nosupermax":
        raise _schema_error("only nosupermax scenarios carry certificates")


def audit_scenario(sc: Scenario):
    """Hypothesis audits; raises HypothesisViolation."""
    construction_module(sc.construction).audit(sc)


def load_scenario(text: str, horizon_override: int | None = None) -> Scenario:
    sc = parse_scenario(text)
    if horizon_override is not None:
        sc.horizon = horizon_override
        validate_schema(sc)
    audit_scenario(sc)
    return sc


def read_file(path) -> str:
    """The text of a scenario or trace file; a UsageError naming the path
    when it cannot be read or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"cannot read {path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        )


def load_scenario_file(path, horizon_override: int | None = None) -> Scenario:
    return load_scenario(read_file(path), horizon_override)
