"""Construction traces: the full, replayable event log of one run.

A trace is line-delimited text: a header (tool version, pairing scheme,
scenario digest, notes), the canonical scenario embedded verbatim between
scenario-begin/scenario-end (so verification is a pure function of the trace
bytes), then one record per event, then final snapshots. Running the same
scenario twice yields byte-identical traces.

Each construction's body records are written by one encoder and read back by
the decoder beside it, so decode(encode(records)) == records; the verifier
works on decoded records only.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import __version__
from .anticomplete import run_anticomplete
from .enumcore import PAIRING_SCHEME_ID, SeparatorSnapshot
from .errors import UsageError
from .functionals import UseBoundedOperator
from .nosupermax import run_nosupermax
from .scenario import Scenario, audit_scenario, parse_scenario
from .twodegrees import run_twodegrees
from .upclosure import (
    MSequenceResult,
    WttAgreementTable,
    classify_case,
    decode_block,
    encode_separator,
    m_sequence,
    recover_m_next,
)

HEADER = "sepsim-trace 1"

_PAIRING_NOTE = "pairing greedy least-unused-cube in diagonal order"
_NOTES = {
    "anticomplete": "fresh numbers exceed every number recorded so far",
    "upclosure": "case declarations are certificates; only consistency is checked",
    "nosupermax": "boundary reset clause read literally across mixed stage indices",
    "twodegrees": "strategies run in index order; coding strategies after axiom ones",
}


@dataclass
class Trace:
    construction: str
    horizon: int
    scenario_text: str
    scenario_hash: str
    body: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            HEADER,
            f"construction {self.construction}",
            f"toolversion {__version__}",
            f"pairing {PAIRING_SCHEME_ID}",
            f"scenariohash {self.scenario_hash}",
            f"horizon {self.horizon}",
        ]
        for note in (_PAIRING_NOTE, _NOTES[self.construction]):
            lines.append(f"note {note}")
        lines.append("scenario-begin")
        lines.extend(self.scenario_text.rstrip("\n").split("\n"))
        lines.append("scenario-end")
        lines.extend(self.body)
        lines.append("end")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared record codecs
#
# Decoders read the body as parse_trace splits it: one token list per line.


def _opt(v) -> str:
    return "-" if v is None or v == "" else str(v)


def _opt_int(tok: str):
    return None if tok == "-" else int(tok)


def _ints(toks) -> tuple[int, ...]:
    return tuple(map(int, toks))


def _fmt_ints(values) -> str:
    return " ".join(map(str, values))


def _parse_events(fields):
    return tuple((int(e), int(t)) for e, t in (f.split(":") for f in fields))


def encode_ev(rec) -> str:
    """`ev <stage> <kind> <fields>` for a record (kind, stage, *fields); None
    and the empty string are written as '-'. An anticomplete act ends with
    its two enumeration runs, `a <ints> b <ints>`, either of which may be
    empty."""
    kind, stage, *fields = rec
    runs = ""
    if kind == "ract":
        *fields, new_a, new_b = fields
        runs = f" a {_fmt_ints(new_a)} b {_fmt_ints(new_b)}"
    return f"ev {stage} {kind} {' '.join(map(_opt, fields))}{runs}".rstrip()


def decode_ev(parts, arity) -> tuple:
    """Inverse of encode_ev for the kinds in `arity` (kind -> field count)."""
    kind = parts[2] if len(parts) > 2 else "-"
    if kind not in arity:
        raise UsageError(f"unknown event {kind} in trace body")
    toks = parts[3:]
    if kind == "ract":
        ai, bi = toks.index("a"), toks.index("b")
        runs = _ints(toks[ai + 1 : bi]), _ints(toks[bi + 1 :])
        fields = (*_ints(toks[: ai - 1]), _opt_int(toks[ai - 1]), *runs)
    elif kind == "axiom":
        fields = (*_ints(toks[:-1]), "" if toks[-1] == "-" else toks[-1])
    else:
        fields = _ints(toks)
    if len(fields) != arity[kind]:
        raise UsageError(f"malformed {kind} record in trace body")
    return (kind, int(parts[1]), *fields)


def encode_event_log(log) -> list[str]:
    """(records, finals) -> one ev line per record, then one `final` line per
    named set, in the order of `finals`."""
    records, finals = log
    return [encode_ev(rec) for rec in records] + [
        " ".join(["final", name, *(f"{e}:{t}" for e, t in events)])
        for name, events in finals.items()
    ]


def _decode_event_log(body, arity, names, horizon):
    """The ev records, then exactly one `final` line per set of `names`, in
    that order; anything else is a UsageError naming the line. A stage lies
    in 0..horizon and a final stamp in 1..horizon. Stages run up to
    horizon - 1; a record at the horizon itself still gets a report, which
    names it as a divergence from the fresh run."""
    records = []
    finals = {}
    for parts in body:
        want = names[len(finals)] if len(finals) < len(names) else None
        if parts[0] == "ev" and not finals:
            rec = decode_ev(parts, arity)
            if not 0 <= rec[1] <= horizon:
                raise UsageError(
                    f"record {' '.join(parts)}: stage outside 0..{horizon}"
                )
            records.append(rec)
        elif parts[0] == "final" and parts[1:2] == [want]:
            events = _parse_events(parts[2:])
            for e, t in events:
                if not 1 <= t <= horizon:
                    raise UsageError(
                        f"record final {want}: entry {e}:{t} stamped outside"
                        f" 1..{horizon}"
                    )
            finals[want] = events
        elif parts[0] in ("ev", "final"):
            line = " ".join(parts[:2] if parts[0] == "final" else parts)
            expected = f"final {want}" if want else "end"
            raise UsageError(
                f"record {line} out of place in trace body (expected {expected})"
            )
        else:
            raise UsageError(f"unknown record {parts[0]} in trace body")
    if len(finals) < len(names):
        raise UsageError(f"trace body lacks its final {names[len(finals)]} line")
    return records, finals


# ---------------------------------------------------------------------------
# anticomplete: (records, {"A", "B", "D": final events})


def _run_anticomplete(sc: Scenario):
    run = run_anticomplete(sc.programs_by_index(), sc.horizon)
    sets = {"A": run.a, "B": run.b, "D": run.d}
    return run.records, {name: s.events for name, s in sets.items()}


def decode_anticomplete(body, horizon):
    arity = {"nact": 2, "rclaim": 2, "ract": 6}
    return _decode_event_log(body, arity, "ABD", horizon)


# ---------------------------------------------------------------------------
# upclosure: the pipeline outcome of run_upclosure_pipeline


def encode_upclosure(out) -> list[str]:
    return [
        f"caseok {'true' if out['consistent'] else 'false'}",
        f"mseq {_fmt_ints(out['m_values'])}",
        f"mseq-missing {_opt(out['m_missing'])}",
        f"z {'-' if out['z'] is None else out['z'].bits}",
        *(f"block {_fmt_ints(blk)}" for blk in out["blocks"]),
        *(f"recover {_fmt_ints(rec)}" for rec in out["recovered"]),
    ]


def decode_upclosure(body):
    """A block or recover record carries exactly 4 integers, caseok reads
    true or false, and caseok, mseq, mseq-missing and z appear at most once;
    anything else is a UsageError naming the record."""
    out = {
        "consistent": None,
        "m_values": [],
        "m_missing": None,
        "z": None,
        "blocks": [],
        "recovered": [],
    }
    seen = set()
    for parts in body:
        kind, fields = parts[0], parts[1:]
        if kind in ("caseok", "mseq", "mseq-missing", "z"):
            if kind in seen:
                raise UsageError(f"record {' '.join(parts)}: a second {kind} record")
            seen.add(kind)
        try:
            if kind in ("block", "recover"):
                if len(fields) != 4:
                    raise ValueError("expected 4 integers")
                out["blocks" if kind == "block" else "recovered"].append(_ints(fields))
            elif kind == "mseq":
                out["m_values"] = list(_ints(fields))
            elif kind not in ("caseok", "mseq-missing", "z"):
                raise UsageError(f"unknown record {kind} in trace body")
            elif len(fields) != 1:
                raise ValueError("expected one field")
            elif kind == "caseok":
                if fields[0] not in ("true", "false"):
                    raise ValueError("expected true or false")
                out["consistent"] = fields[0] == "true"
            elif kind == "mseq-missing":
                out["m_missing"] = _opt_int(fields[0])
            else:
                out["z"] = None if fields[0] == "-" else SeparatorSnapshot(fields[0])
        except ValueError as exc:
            raise UsageError(f"record {' '.join(parts)}: {exc}")
    return out


def _run_upclosure(sc: Scenario):
    # a call by name, so that rebinding the module-level pipeline (as
    # perfbench/tracing.py does to time it) also covers runs
    return run_upclosure_pipeline(sc)


def run_upclosure_pipeline(sc: Scenario):
    """Audit is assumed done at load; classify, build boundaries, encode,
    decode every block, and in the least-x flavour re-derive each boundary
    from the encoded separator."""
    f = sc.use_bound()
    a, b = sc.stage_set("A"), sc.stage_set("B")
    c_final = sc.stage_set("C").final()
    a_final, b_final = a.final(), b.final()
    consistent = classify_case(a, b, f, sc.horizon, sc.case)
    max_blocks = 8
    if sc.case.tag == 1:
        # iterate f from k while the boundary stays near the scripted domain
        # and inside the 64-position working window
        cap = min(
            f.domain - 1,
            max([e for e in a_final | b_final] + [16]) + 16,
            58,
        )
        values = [sc.case.k]
        while len(values) <= max_blocks and values[-1] <= cap:
            values.append(f(values[-1]))
        missing = None
    else:
        res: MSequenceResult = m_sequence(
            sc.case, a_final, b_final, f, max_blocks + 1
        )
        values = res.values
        missing = res.missing_index
    out = {
        "consistent": consistent,
        "m_values": values,
        "m_missing": missing,
        "z": None,
        "blocks": [],
        "recovered": [],
    }
    if len(values) < 2:
        return out
    z = encode_separator(c_final, values, a_final, b_final)
    out["z"] = z
    for n in range(len(values) - 1):
        bit, stage = decode_block(z, a, b, values[n], values[n + 1], sc.horizon)
        out["blocks"].append((n, bit, stage, 1 if n in c_final else 0))
    if sc.case.tag == 2:
        gamma = UseBoundedOperator(program=sc.program("gamma"), bound=f)
        delta = UseBoundedOperator(program=sc.program("delta"), bound=f)
        table = WttAgreementTable(a, b, gamma, delta, f, sc.horizon)
        for n in range(len(values) - 1):
            got, stage = recover_m_next(
                z, a, b, gamma, delta, f, values[: n + 1], sc.horizon, table=table
            )
            out["recovered"].append((n + 1, got, stage, values[n + 1]))
    return out


# ---------------------------------------------------------------------------
# nosupermax: (attempts, certs), one (attempt, base, horizon, records) per
# attempt section and one (attempt, accepted, witness stage, reason, stage
# map) per certificate; the stage map is None when no map line is recorded


def _run_nosupermax(sc: Scenario):
    result = run_nosupermax(
        sc.sets.get("A", []), sc.sets.get("B", []), sc.horizon, sc.certs
    )
    attempts = [(r.attempt, r.base, r.horizon, r.records) for r in result.attempts]
    certs = []
    for cert, res in result.cert_results:
        stage_map = res.stage_map if res.accepted else None
        fields = (res.accepted, res.witness_stage, res.reason, stage_map)
        certs.append((cert.attempt, *fields))
    return attempts, certs


def encode_nosupermax(log) -> list[str]:
    attempts, certs = log
    lines = []
    for i, (attempt, base, horizon, records) in enumerate(attempts):
        lines.append(f"attempt {attempt} begin {base} {horizon}")
        lines.extend(encode_ev(rec) for rec in records)
        lines.append(f"attempt {attempt} end")
        if i < len(certs):
            attempt, accepted, witness, reason, stage_map = certs[i]
            verdict = "accepted" if accepted else f"rejected {_opt(witness)} {reason}"
            lines.append(f"cert {attempt} {verdict}")
            if stage_map is not None:
                lines.append(f"map {_fmt_ints(stage_map)}")
    return lines


def decode_nosupermax(body):
    arity = {"boundary": 1, "xin": 1, "xout": 1}
    # the records each record may follow; None stands for the start of the
    # body. A section may follow a section without a certificate: the
    # verifier, not the decoder, reports a chain that differs from the fresh
    # run's.
    follows = {
        "begin": (None, "end", "accepted", "map", "rejected"),
        "ev": ("begin", "ev"),
        "end": ("begin", "ev"),
        "accepted": ("end",),
        "rejected": ("end",),
        "map": ("accepted",),
    }
    attempts, certs = [], []
    prev = None
    for parts in body:
        kind = parts[0]
        if kind == "attempt":
            kind = parts[2]  # begin or end
        elif kind == "cert":
            kind = "accepted" if parts[2] == "accepted" else "rejected"
        if kind not in follows:
            raise UsageError(f"unknown record {parts[0]} in trace body")
        if prev not in follows[kind]:
            raise UsageError(f"{parts[0]} record out of place in trace body")
        prev = kind
        if kind == "begin":
            # an attempt's base is -1 or a settled boundary value; the
            # verifier's scans start just above it
            if int(parts[3]) < -1:
                raise UsageError(f"record {' '.join(parts)}: base below -1")
            attempts.append((int(parts[1]), int(parts[3]), int(parts[4]), []))
        elif kind == "ev":
            # bounded before any attempt is rebuilt from the records: a kept
            # index sizes the per-entry reset lists
            rec = decode_ev(parts, arity)
            _, _, horizon, records = attempts[-1]
            if not 1 <= rec[1] <= horizon:
                raise UsageError(
                    f"record {' '.join(parts)}: stage outside 1..{horizon}"
                )
            if rec[0] == "boundary" and not -1 <= rec[2] < horizon:
                raise UsageError(
                    f"record {' '.join(parts)}: kept index outside -1..{horizon - 1}"
                )
            records.append(rec)
        elif kind == "end":
            attempt, _, horizon, records = attempts[-1]
            count = sum(rec[0] == "boundary" for rec in records)
            if count != horizon:
                raise UsageError(
                    f"attempt {attempt} carries {count} boundary records for horizon"
                    f" {horizon}"
                )
        elif kind == "accepted":
            certs.append((int(parts[1]), True, None, "", None))
        elif kind == "rejected":
            reason = " ".join(parts[4:])
            certs.append((int(parts[1]), False, _opt_int(parts[3]), reason, None))
        elif kind == "map":
            certs[-1] = (*certs[-1][:4], list(_ints(parts[1:])))
    if prev is None:
        raise UsageError("trace carries no attempts")
    if prev in ("begin", "ev"):
        raise UsageError("attempt section without an end")
    return attempts, certs


# ---------------------------------------------------------------------------
# twodegrees: (records, {"A", "B": final events})


def twodegrees_inputs(sc: Scenario):
    """TwoDegreesRun's constructor arguments, taken from the scenario."""
    sets = sc.sets.get("C", []), sc.sets.get("K", [])
    return (*sets, sc.w_events_by_index(), sc.programs_by_index(), sc.horizon)


def _run_twodegrees(sc: Scenario):
    run = run_twodegrees(*twodegrees_inputs(sc))
    return run.records, {"A": run.a.events, "B": run.b.events}


def decode_twodegrees(body, horizon):
    arity = {"axiom": 5, "kill": 4, "promote": 3, "pfire": 3}
    return _decode_event_log(body, arity, "AB", horizon)


# ---------------------------------------------------------------------------
# running

# construction -> (runner: scenario -> records, encoder: records -> body lines)
_CODECS = {
    "anticomplete": (_run_anticomplete, encode_event_log),
    "upclosure": (_run_upclosure, encode_upclosure),
    "nosupermax": (_run_nosupermax, encode_nosupermax),
    "twodegrees": (_run_twodegrees, encode_event_log),
}


def encode_run(sc: Scenario) -> list[str]:
    """Run the scenario's construction and encode its records as body lines."""
    if sc.construction not in _CODECS:
        raise UsageError(f"unknown construction {sc.construction}")
    run, encode = _CODECS[sc.construction]
    return encode(run(sc))


def run_scenario(sc: Scenario) -> Trace:
    """Run the construction and serialize the run."""
    text = sc.canonical()
    return Trace(
        construction=sc.construction,
        horizon=sc.horizon,
        scenario_text=text,
        scenario_hash=hashlib.sha256(text.encode()).hexdigest(),
        body=encode_run(sc),
    )


# ---------------------------------------------------------------------------
# parsing


@dataclass
class ParsedTrace:
    construction: str
    horizon: int
    scenario: Scenario
    scenario_hash: str
    body: list[list[str]] = field(default_factory=list)


def parse_trace(text: str) -> ParsedTrace:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise UsageError("missing or unsupported trace header", location="line 1")
    meta = {}
    body: list[list[str]] = []
    scenario_lines: list[str] = []
    in_scenario = False
    ended = False
    for lineno, raw in enumerate(lines[1:], start=2):
        if in_scenario:
            if raw == "scenario-end":
                in_scenario = False
            else:
                scenario_lines.append(raw)
            continue
        line = raw.strip()
        if not line:
            continue
        if ended:
            raise UsageError("content after end record", location=f"line {lineno}")
        parts = line.split()
        kind = parts[0]
        if kind in ("construction", "toolversion", "pairing", "scenariohash", "horizon"):
            if len(parts) != 2:
                raise UsageError(
                    f"malformed {kind} header", location=f"line {lineno}"
                )
            meta[kind] = parts[1]
        elif kind == "note":
            continue
        elif kind == "scenario-begin":
            in_scenario = True
        elif kind == "end":
            ended = True
        else:
            body.append(parts)
    if not ended:
        raise UsageError("missing end record")
    for key in ("construction", "scenariohash", "horizon"):
        if key not in meta:
            raise UsageError(f"trace header missing {key}")
    scenario = parse_scenario("\n".join(scenario_lines) + "\n")
    if scenario.digest() != meta["scenariohash"]:
        raise UsageError("embedded scenario does not match the recorded digest")
    audit_scenario(scenario)
    if meta["horizon"] != str(scenario.horizon):
        raise UsageError("horizon header does not match the embedded scenario")
    return ParsedTrace(
        construction=meta["construction"],
        horizon=scenario.horizon,
        scenario=scenario,
        scenario_hash=meta["scenariohash"],
        body=body,
    )
