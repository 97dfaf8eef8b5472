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
elements exceed the horizon by at most 4096, as bound table values do.
Hypothesis audits run at load time: upclosure scenarios must have disjoint
scripted sides, a hole below the horizon, and operators that compute each
side from the other bit by bit; nosupermax scenarios must script disjoint
sides.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from .enumcore import StageSet
from .errors import HypothesisViolation, UsageError
from .functionals import OracleProgram, OracleRule, UseBound, UseBoundedOperator
from .nosupermax import SpeedupCertificate
from .upclosure import CaseTag, audit_hypotheses

CONSTRUCTIONS = ("anticomplete", "upclosure", "nosupermax", "twodegrees")

_SET_NAMES = {
    "anticomplete": (),
    "upclosure": ("A", "B", "C"),
    "nosupermax": ("A", "B"),
    "twodegrees": ("C", "K"),  # plus W<e>
}

_PROG_RE = {
    "anticomplete": re.compile(r"^phi(\d+)$"),
    "upclosure": re.compile(r"^(gamma|delta)$"),
    "nosupermax": None,
    "twodegrees": re.compile(r"^phi(\d+)$"),
}

DEFAULT_HORIZON = 1000
MAX_HORIZON = 10_000  # nosupermax cost grows about quadratically with it


@dataclass
class Scenario:
    construction: str
    horizon: int = DEFAULT_HORIZON
    sets: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    rules: dict[str, list[OracleRule]] = field(default_factory=dict)
    bound_table: list[tuple[int, int]] = field(default_factory=list)
    case: CaseTag | None = None
    certs: list[SpeedupCertificate] = field(default_factory=list)
    # program name -> its OracleProgram, filled by program()
    _programs: dict[str, OracleProgram] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- canonical form and digest

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
        for prog in sorted(self.rules):
            for r in sorted(
                self.rules[prog],
                key=lambda r: (r.input, r.use, r.available_at, r.guard, r.output),
            ):
                parts = [
                    "rule",
                    prog,
                    str(r.input),
                    str(r.output),
                    str(r.use),
                    str(r.available_at),
                    str(len(r.guard)),
                ]
                for p, b in r.guard:
                    parts.append(str(p))
                    parts.append(str(b))
                lines.append(" ".join(parts))
        lines.append("end")
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()

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

    def w_events_by_index(self) -> dict[int, list[tuple[int, int]]]:
        out = {}
        for name, events in self.sets.items():
            if name.startswith("W"):
                out[int(name[1:])] = list(events)
        return out


def _schema_error(msg, lineno=None):
    loc = None if lineno is None else f"line {lineno}"
    return UsageError(msg, location=loc)


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
    # rule records outnumber all others, then set records, so they come
    # first; only a rule reads past the seventh field (its guard)
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
                rule = OracleRule(guard, *map(int, parts[2:6]))
                prog = rules.get(name)
                if prog is None:
                    rules[name] = [rule]
                else:
                    prog.append(rule)
            elif kind == "set":
                sc.sets.setdefault(parts[1], []).append((int(parts[2]), int(parts[3])))
            elif kind == "construction":
                if parts[1] not in CONSTRUCTIONS:
                    raise _schema_error(f"unknown construction {parts[1]}", lineno)
                sc.construction = parts[1]
            elif kind == "horizon":
                sc.horizon = int(parts[1])
                horizon_seen = True
            elif kind == "case":
                tag = int(parts[1])
                sc.case = CaseTag(1, int(parts[2])) if tag == 1 else CaseTag(2)
            elif kind == "cert":
                parity = {"odd": 1, "even": 0}.get(parts[4])
                if parity is None:
                    raise _schema_error(f"bad parity word {parts[4]}", lineno)
                sc.certs.append(
                    SpeedupCertificate(
                        attempt=int(parts[1]),
                        ell=int(parts[2]),
                        k=int(parts[3]),
                        parity=parity,
                        settling_stage=int(parts[5]),
                    )
                )
            elif kind == "bound":
                if parts[1] != "f":
                    raise _schema_error("only the bound named f exists", lineno)
                sc.bound_table.append((int(parts[2]), int(parts[3])))
            elif kind == "end":
                ended = True
            else:
                raise _schema_error(f"unknown record {kind}", lineno)
        except UsageError:
            raise
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
    allowed = _SET_NAMES[sc.construction]
    for name, events in sc.sets.items():
        ok = name in allowed or (
            sc.construction == "twodegrees" and re.fullmatch(r"W\d+", name)
        )
        if not ok:
            raise _schema_error(
                f"set {name} not allowed for {sc.construction}"
            )
        seen = set()
        min_stage = 1 if sc.construction == "nosupermax" else 0
        for e, t in events:
            if e < 0:
                raise _schema_error(f"set {name} element {e} negative")
            if e > sc.horizon + 4096:
                # oracle ints and bit tables are as wide as the largest element
                raise _schema_error(
                    f"set {name} element {e} exceeds the horizon by more than 4096"
                )
            if t < min_stage or t > sc.horizon - 1:
                raise _schema_error(
                    f"set {name} event ({e}, {t}) outside stages"
                    f" [{min_stage}, {sc.horizon - 1}]"
                )
            if e in seen:
                raise _schema_error(f"set {name} element {e} enters twice")
            seen.add(e)
        if sc.construction == "twodegrees" and name == "C":
            for e, _ in events:
                if e > 32:
                    raise _schema_error(
                        f"set C column {e} exceeds 32; the bounded-quantifier"
                        " decoding walks all of its slots"
                    )
    prog_re = _PROG_RE[sc.construction]
    for name, rules in sc.rules.items():
        if prog_re is None or not prog_re.match(name):
            raise _schema_error(
                f"program {name} not allowed for {sc.construction}"
            )
        for r in rules:
            if r.use > 4096:
                raise _schema_error(
                    f"program {name}: rule use {r.use} exceeds 4096"
                )
        try:
            sc.program(name)
        except ValueError as exc:
            raise _schema_error(f"program {name}: {exc}")
    if sc.construction == "upclosure":
        if sc.case is None:
            raise _schema_error("upclosure scenarios declare their case")
        try:
            f = sc.use_bound()
        except ValueError as exc:
            raise _schema_error(f"bound table: {exc}")
        if f.domain < sc.horizon:
            raise _schema_error(
                f"bound table covers [0, {f.domain}), horizon {sc.horizon}"
            )
        if f.table and max(f.table) > sc.horizon + 4096:
            raise _schema_error("bound table values exceed the horizon by 4096")
        for name in ("gamma", "delta"):
            try:
                UseBoundedOperator(program=sc.program(name), bound=f)
            except ValueError as exc:
                raise _schema_error(f"operator {name}: {exc}")
    else:
        if sc.case is not None:
            raise _schema_error("only upclosure scenarios declare a case")
        if sc.bound_table:
            raise _schema_error("only upclosure scenarios carry a bound table")
    if sc.certs:
        if sc.construction != "nosupermax":
            raise _schema_error("only nosupermax scenarios carry certificates")
        if len(sc.certs) > 2:
            raise _schema_error("at most two certificates")
        for i, c in enumerate(sc.certs):
            if c.attempt != i + 1:
                raise _schema_error(
                    f"certificate {i + 1} must target attempt {i + 1}"
                )


def audit_scenario(sc: Scenario):
    """Hypothesis audits; raises HypothesisViolation."""
    if sc.construction == "upclosure":
        f = sc.use_bound()
        audit_hypotheses(
            sc.stage_set("A"),
            sc.stage_set("B"),
            UseBoundedOperator(program=sc.program("gamma"), bound=f),
            UseBoundedOperator(program=sc.program("delta"), bound=f),
            f,
            sc.horizon,
        )
    elif sc.construction == "nosupermax":
        a = {e for e, _ in sc.sets.get("A", [])}
        b = {e for e, _ in sc.sets.get("B", [])}
        inter = a & b
        if inter:
            raise HypothesisViolation(
                f"scripted sets intersect at element {min(inter)}"
            )


def load_scenario(text: str, horizon_override: int | None = None) -> Scenario:
    sc = parse_scenario(text)
    if horizon_override is not None:
        sc.horizon = horizon_override
        validate_schema(sc)
    audit_scenario(sc)
    return sc


def load_scenario_file(path, horizon_override: int | None = None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read scenario: {exc}")
    return load_scenario(text, horizon_override)
