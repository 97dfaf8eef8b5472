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
...; upclosure uses gamma and delta. '#' starts a comment.

Scripted event stages must stay below the horizon so every event is visible
to an executed stage; nosupermax events additionally start at stage 1. Set
elements, bound table values and rule uses exceed the horizon by at most
PAST_HORIZON (4096), the one cap `width_cap` states.
Hypothesis audits run at load time: upclosure scenarios must have disjoint
scripted sides, a hole below the horizon, and operators that compute each
side from the other bit by bit; nosupermax scenarios must script disjoint
sides.

Every record but a rule is read through RECORDS, its table of token types,
so a record with more or fewer tokens reads `line N: record <tokens>: <n>
tokens, expected <m>`; a rule keeps its own path, which caches its guards.

The grammar, the canonical form and the shared checks live here; the rest
is read from the construction's module (`construction_module`): SET_NAMES
and PROGRAM_NAMES (full-match patterns, or None for no names), FIRST_STAGE
(least event stage), check_set(name, events) and check_schema(sc) (its own
rules, after the shared ones) and audit(sc) (its hypothesis audit).
"""

from __future__ import annotations

import importlib

from .enumcore import StageSet
from .errors import UsageError
from .functionals import OracleProgram, OracleRule, UseBound
from .records import read_record, record_table

CONSTRUCTIONS = ("anticomplete", "upclosure", "nosupermax", "twodegrees")


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
    __slots__ = (
        "construction", "horizon", "sets", "rules", "bound_table", "case", "certs",
        "_programs",
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
        self.construction = construction
        self.horizon = horizon
        self.sets = {} if sets is None else sets
        self.rules = {} if rules is None else rules
        self.bound_table = [] if bound_table is None else bound_table
        self.case = case  # an upclosure.CaseTag, in upclosure scenarios only
        self.certs = []  # nosupermax.SpeedupCertificates, at most two
        # program name -> its OracleProgram, filled by program()
        self._programs: dict[str, OracleProgram] = {}

    # -- canonical form

    def canonical(self) -> str:
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
        for prog in sorted(self.rules):
            rows = []
            for r in self.rules[prog]:
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
        return StageSet(self.sets.get(name, []), horizon=self.horizon)

    def program(self, name: str) -> OracleProgram:
        """The program of that name, empty when no rule names it. Each is
        built once per Scenario, on first access, and shared by the schema
        check, the audit, the run and the verifier; a program's rules are
        fixed from then on."""
        prog = self._programs.get(name)
        if prog is None:
            prog = self._programs[name] = OracleProgram(self.rules.get(name, []))
        return prog

    def programs_by_index(self) -> dict[int, OracleProgram]:
        return {
            int(name[3:]): self.program(name)
            for name in self.rules
            if name.startswith("phi")
        }

    def use_bound(self) -> UseBound:
        table = sorted(self.bound_table)
        if [x for x, _ in table] != list(range(len(table))):
            raise UsageError("bound table must cover an initial segment")
        return UseBound(table=tuple(fx for _, fx in table))


def _schema_error(msg, lineno=None):
    loc = None if lineno is None else f"line {lineno}"
    return UsageError(msg, location=loc)


# the types of each scenario record's tokens after its kind, so its token
# count too: a trailing token would vanish from the canonical text and the
# digest. A rule is read on its own path, and `case 1 <k>` is the case
# record whose tag reads 1.
RECORDS = record_table({
    "set": (str, int, int),
    "construction": (str,),
    "horizon": (int,),
    "case": (int,),
    "cert": (int, int, int, str, int),
    "bound": (str, int, int),
    "end": (),
})
CASE_1 = record_table({"case": (int, int)})


def parse_scenario(text: str) -> Scenario:
    """Parse and schema-validate; hypothesis audits are separate."""
    lines = text.splitlines()
    if not lines or lines[0].split("#")[0].strip() != "sepsim-scenario 1":
        raise _schema_error("missing or unsupported scenario header", 1)
    sc = Scenario(construction="")
    rules = sc.rules
    # guard text -> its pairs; many rules of a program share one guard
    guards: dict[str, tuple[tuple[int, int], ...]] = {}
    horizon_seen = False
    ended = False
    # rule records outnumber all others, so they come first; only a rule
    # reads past the seventh field (its guard), and only a rule is read
    # outside the record table
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = (raw.split("#")[0] if "#" in raw else raw).split(None, 7)
        if not parts:
            continue
        if ended:
            raise _schema_error("content after end record", lineno)
        kind = parts[0]
        try:
            if kind == "rule":
                name = parts[1]
                npairs = int(parts[6])
                tail = parts[7] if len(parts) == 8 else ""
                guard = guards.get(tail)
                if guard is None:
                    nums = tail.split()
                    if len(nums) == 2 * npairs:
                        it = map(int, nums)
                        guard = guards[tail] = tuple(zip(it, it))
                if guard is None or len(guard) != npairs:
                    raise _schema_error("guard pair count mismatch", lineno)
                # input, output, use and availability
                rule = OracleRule(
                    guard, int(parts[2]), int(parts[3]), int(parts[4]), int(parts[5])
                )
                prog = rules.get(name)
                if prog is None:
                    rules[name] = [rule]
                else:
                    prog.append(rule)
            else:
                table = RECORDS
                if kind == "case" and len(parts) > 1 and int(parts[1]) == 1:
                    table = CASE_1
                fields = read_record(parts, table, lineno=lineno)
                if fields is None:
                    raise _schema_error(f"unknown record {kind}", lineno)
                if kind == "set":
                    sc.sets.setdefault(fields[0], []).append((fields[1], fields[2]))
                elif kind == "construction":
                    if fields[0] not in CONSTRUCTIONS:
                        raise _schema_error(f"unknown construction {fields[0]}", lineno)
                    sc.construction = fields[0]
                elif kind == "horizon":
                    sc.horizon = fields[0]
                    horizon_seen = True
                elif kind == "case":
                    from .upclosure import CaseTag
                    sc.case = CaseTag(*fields)
                elif kind == "cert":
                    from .nosupermax import SpeedupCertificate
                    parity = {"odd": 1, "even": 0}.get(fields[3])
                    if parity is None:
                        raise _schema_error(f"bad parity word {fields[3]}", lineno)
                    sc.certs.append(SpeedupCertificate(*fields[:3], parity, fields[4]))
                elif kind == "bound":
                    if fields[0] != "f":
                        raise _schema_error("only the bound named f exists", lineno)
                    sc.bound_table.append((fields[1], fields[2]))
                else:  # end
                    ended = True
        except (ValueError, IndexError) as exc:
            raise _schema_error(f"malformed {kind} record: {exc}", lineno)
    if not ended:
        raise _schema_error("missing end record")
    if not sc.construction:
        raise _schema_error("missing construction record")
    if not horizon_seen:
        sc.horizon = DEFAULT_HORIZON
    validate_schema(sc)
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
    for name, rules in sc.rules.items():
        if module.PROGRAM_NAMES is None or not module.PROGRAM_NAMES.fullmatch(name):
            raise _schema_error(
                f"program {name} not allowed for {sc.construction}"
            )
        for r in rules:
            if r.use > cap:
                raise _schema_error(
                    f"program {name}: rule use {r.use} exceeds the horizon by more"
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
