"""Naive references for scenario parsing and program determinism.

`naive_parse_scenario` is the plain record-by-record parser: every record
but a rule has a fixed token count (`case 1 <k>` takes 3, `case 2` takes 2),
and every rule is checked by `naive_rule` (sort the guard, refuse a repeated
position, then check each entry) before it becomes an `OracleRule`, and a
program's OracleRules are compiled into its rows (`rule_rows.rows_of`).
`naive_compatible` decides guard compatibility through a position -> bit
dict. `naive_canonical` renders a scenario's canonical text pair by pair,
rule by rule, from its programs' `rules`. The fast paths in
`sepsim.scenario` and `sepsim.functionals` must agree with these on every
input: the same scenario (and text), or the same error.
"""

from rule_rows import rows_of
from sepsim.errors import UsageError
from sepsim.functionals import OracleRule
from sepsim.nosupermax import SpeedupCertificate
from sepsim.scenario import (
    CONSTRUCTIONS,
    DEFAULT_HORIZON,
    Scenario,
    _schema_error,
    validate_schema,
)
from sepsim.upclosure import CaseTag


# token count of each record but rule and case, written out apart from
# sepsim.scenario.RECORDS: a count wrong in a shared table would agree with
# itself
ARITY = {"construction": 2, "horizon": 2, "set": 4, "cert": 6, "bound": 4, "end": 1}


def naive_rule(guard, input, output, use, available_at=0) -> OracleRule:
    guard = tuple(sorted(guard))
    positions = [p for p, _ in guard]
    if len(set(positions)) != len(positions):
        raise ValueError("guard mentions a position twice")
    for p, b in guard:
        if p < 0 or b not in (0, 1):
            raise ValueError(f"bad guard entry ({p}, {b})")
        if p >= use:
            raise ValueError(f"use-honesty violated: guard position {p} >= use {use}")
    if input < 0 or use < 0 or available_at < 0:
        raise ValueError("rule fields must be naturals")
    if output not in (0, 1):
        raise ValueError("output must be a bit")
    return OracleRule(guard, input, output, use, available_at)


def naive_compatible(g1, g2) -> bool:
    m = dict(g1)
    return all(m.get(p, b) == b for p, b in g2)


def naive_parse_scenario(text: str) -> Scenario:
    lines = text.splitlines()
    if not lines or lines[0].split("#")[0].strip() != "sepsim-scenario 1":
        raise _schema_error("missing or unsupported scenario header", 1)
    sc = Scenario(construction="")
    rules = {}  # program name -> its OracleRules, in rule order
    horizon_seen = False
    ended = False
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if ended:
            raise _schema_error("content after end record", lineno)
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "case":
                tag = int(parts[1]) if len(parts) > 1 else 0
                arity = 3 if tag == 1 else 2
            else:
                arity = ARITY.get(kind)
            if arity is not None and len(parts) != arity:
                raise _schema_error(
                    f"record {' '.join(parts)}: {len(parts)} tokens, expected {arity}",
                    lineno,
                )
            if kind == "construction":
                if parts[1] not in CONSTRUCTIONS:
                    raise _schema_error(f"unknown construction {parts[1]}", lineno)
                sc.construction = parts[1]
            elif kind == "horizon":
                sc.horizon = int(parts[1])
                horizon_seen = True
            elif kind == "case":
                sc.case = CaseTag(tag, int(parts[2])) if tag == 1 else CaseTag(tag)
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
            elif kind == "set":
                name = parts[1]
                sc.sets.setdefault(name, []).append((int(parts[2]), int(parts[3])))
            elif kind == "bound":
                if parts[1] != "f":
                    raise _schema_error("only the bound named f exists", lineno)
                sc.bound_table.append((int(parts[2]), int(parts[3])))
            elif kind == "rule":
                name = parts[1]
                npairs = int(parts[6])
                nums = parts[7:]
                if len(nums) != 2 * npairs:
                    raise _schema_error("guard pair count mismatch", lineno)
                guard = tuple(
                    (int(nums[2 * i]), int(nums[2 * i + 1])) for i in range(npairs)
                )
                rules.setdefault(name, []).append(
                    naive_rule(
                        guard=guard,
                        input=int(parts[2]),
                        output=int(parts[3]),
                        use=int(parts[4]),
                        available_at=int(parts[5]),
                    )
                )
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
    sc.rules = {name: rows_of(program) for name, program in rules.items()}
    validate_schema(sc)
    return sc


def naive_canonical(sc: Scenario) -> str:
    """The canonical text with every rule's guard rendered afresh."""
    lines = ["sepsim-scenario 1", f"construction {sc.construction}"]
    lines.append(f"horizon {sc.horizon}")
    if sc.case is not None:
        lines.append(f"case 1 {sc.case.k}" if sc.case.tag == 1 else "case 2")
    for c in sc.certs:
        parity = "odd" if c.parity == 1 else "even"
        lines.append(f"cert {c.attempt} {c.ell} {c.k} {parity} {c.settling_stage}")
    for name in sorted(sc.sets):
        for e, t in sorted(sc.sets[name], key=lambda p: (p[1], p[0])):
            lines.append(f"set {name} {e} {t}")
    for x, fx in sorted(sc.bound_table):
        lines.append(f"bound f {x} {fx}")
    for prog in sorted(sc.rules):
        for r in sorted(
            sc.program(prog).rules,
            key=lambda r: (r.input, r.use, r.available_at, r.guard, r.output),
        ):
            parts = ["rule", prog, str(r.input), str(r.output), str(r.use)]
            parts += [str(r.available_at), str(len(r.guard))]
            for p, b in r.guard:
                parts.append(str(p))
                parts.append(str(b))
            lines.append(" ".join(parts))
    lines.append("end")
    return "\n".join(lines) + "\n"
