"""Construction traces: the full, replayable event log of one run.

A trace is line-delimited text: a header (tool version, pairing scheme,
scenario digest, notes), the canonical scenario embedded verbatim between
scenario-begin/scenario-end (so verification is a pure function of the trace
bytes), then one record per event, then final snapshots, then `end`. Running
the same scenario twice yields byte-identical traces.

`parse_trace` reads exactly the frame `Trace.render` writes, before any
hypothesis audit: the lines from HEADER to scenario-begin are, line for line,
the `header_lines` of the embedded scenario, with the digest of the embedded
text as read (its lines joined by newlines, plus a final newline), so any
edit of that text fails on the `scenariohash` line; an edited text whose
digest was taken again must still be canonical, and fails on its first line
that is not (the parse notes it as `noncanonical_line`); and the last
non-blank line reads exactly `end`. An error in the embedded text names its
trace line. The canonical text is never rendered again to check a trace, and
`run_scenario` embeds the text a scenario was parsed from when that text was
canonical. Both return a Trace, whose body is its lines as they stand.

The header, the `ev`/`final` codecs and the body framing live here. The
event log is read through its record tables, EVENTS (every construction's
`ev` kinds) and FINAL, by `records.read_record`, so a record with a wrong
token count exits 2 as `record <tokens>: <n> tokens, expected <m>`, as in
every other format. The construction's module
(`scenario.construction_module`) supplies NOTE, the header's note; fresh(sc),
which runs the scenario and returns the run with its log; and encode(log),
which writes the body. Its decoder sits beside them, so
decode(encode(log)) == log.
"""

from __future__ import annotations

import hashlib

from . import __version__
from .enumcore import PAIRING_SCHEME_ID
from .errors import HardFault, UsageError
from .records import Tail, bad_record, read_record, record_table
from .scenario import Scenario, audit_scenario, construction_module, parse_scenario

HEADER = "sepsim-trace 1"

_PAIRING_NOTE = "pairing greedy least-unused-cube in diagonal order"


def header_lines(construction, scenario_hash, horizon) -> list[str]:
    """The lines between HEADER and scenario-begin, as a trace of that
    construction, scenario digest and horizon carries them."""
    return [
        f"construction {construction}",
        f"toolversion {__version__}",
        f"pairing {PAIRING_SCHEME_ID}",
        f"scenariohash {scenario_hash}",
        f"horizon {horizon}",
        f"note {_PAIRING_NOTE}",
        f"note {construction_module(construction).NOTE}",
    ]


class Trace:
    """A run's trace, as run_scenario writes it or parse_trace reads it."""

    __slots__ = ("scenario", "construction", "scenario_text", "scenario_hash", "body")

    def __init__(self, scenario: Scenario, scenario_text, scenario_hash, body):
        self.scenario = scenario
        self.construction = scenario.construction
        self.scenario_text = scenario_text
        self.scenario_hash = scenario_hash
        self.body: list[str] = body

    def render(self) -> str:
        lines = [
            HEADER,
            *header_lines(self.construction, self.scenario_hash, self.scenario.horizon),
            "scenario-begin",
        ]
        lines.extend(self.scenario_text.rstrip("\n").split("\n"))
        lines.append("scenario-end")
        lines.extend(self.body)
        lines.append("end")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared record codecs
#
# Decoders read a body split into tokens: one token list per non-blank line.


def fmt_opt(v) -> str:
    return "-" if v is None or v == "" else str(v)


def parse_opt(tok: str):
    return None if tok == "-" else int(tok)


def ints(toks) -> tuple[int, ...]:
    return tuple(map(int, toks))


def fmt_ints(values) -> str:
    return " ".join(map(str, values))


def _stamped(tok):
    e, t = tok.split(":")
    return int(e), int(t)


def _runs(toks):
    b = toks.index("b")
    return ints(toks[1:b]), ints(toks[b + 1 :])


# the types of each event's fields after its kind: anticomplete's, then
# twodegrees'. An act ends with its enumeration runs, `a <ints> b <ints>`,
# and an axiom with its prefix, written '-' when empty.
EVENTS = record_table({
    "nact": (int, int),
    "rclaim": (int, int),
    "ract": (int, int, int, parse_opt, Tail(_runs, least=2, marker="a")),
    "axiom": (int, int, int, int, lambda tok: "" if tok == "-" else tok),
    "kill": (int, int, int, int),
    "promote": (int, int, int),
    "pfire": (int, int, int),
})
FINAL = record_table({"final": (str, Tail(lambda toks: map(_stamped, toks)))})


def encode_ev(rec) -> str:
    """`ev <stage> <kind> <fields>` for a record (kind, stage, *fields); None
    and the empty string are written as '-'. The fields of a two-field
    record are ints. An anticomplete act ends with its two enumeration runs,
    `a <ints> b <ints>`, either of which may be empty."""
    if len(rec) == 4:  # nact, rclaim
        return f"ev {rec[1]} {rec[0]} {rec[2]} {rec[3]}"
    if rec[0] == "ract":
        _, stage, e, n, r, m, new_a, new_b = rec
        runs = f"a {fmt_ints(new_a)} b {fmt_ints(new_b)}"
        return f"ev {stage} ract {e} {n} {r} {fmt_opt(m)} {runs}".rstrip()
    kind, stage, *fields = rec
    return f"ev {stage} {kind} {' '.join(map(fmt_opt, fields))}"


def encode_event_log(log) -> list[str]:
    """(records, finals) -> one ev line per record, then one `final` line per
    named set, in the order of `finals`."""
    records, finals = log
    return [encode_ev(rec) for rec in records] + [
        " ".join(["final", name, *(f"{e}:{t}" for e, t in events)])
        for name, events in finals.items()
    ]


def decode_event_log(body, kinds, names, horizon):
    """The ev records of `kinds`, read by EVENTS, then exactly one `final`
    line per set of `names`, in that order; anything else is a UsageError
    naming the line. A stage lies in 0..horizon and a final stamp in
    1..horizon. Stages run up to horizon - 1; a record at the horizon itself
    still gets a report, which names it as a divergence from the fresh run."""
    events = {kind: EVENTS[kind] for kind in kinds}
    records = []
    finals = {}
    for parts in body:
        want = names[len(finals)] if len(finals) < len(names) else None
        if parts[0] == "ev" and not finals:
            try:
                rec = read_record(parts, events, 2, int)
            except ValueError as exc:
                raise bad_record(parts, exc)
            if rec is None:
                raise UsageError(f"unknown event {parts[2]} in trace body")
            if not 0 <= rec[0] <= horizon:
                raise bad_record(parts, f"stage outside 0..{horizon}")
            records.append((parts[2], *rec))
        elif parts[0] == "final" and parts[1:2] in ([], [want]):
            try:
                _, *stamped = read_record(parts, FINAL)  # a bare final is too short
            except ValueError as exc:
                raise bad_record(parts, exc)
            for e, t in stamped:
                if not 1 <= t <= horizon:
                    raise UsageError(
                        f"record final {want}: entry {e}:{t} stamped outside"
                        f" 1..{horizon}"
                    )
            finals[want] = tuple(stamped)
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
# running


def run_upclosure_pipeline(sc: Scenario):
    """Audit is assumed done at load, on the scenario's own stage sets and
    agreement table, which this run reads; classify, build boundaries,
    encode, decode every block, and in the least-x flavour re-derive each
    boundary from the encoded separator. upclosure's fresh calls it through
    this module, whose attribute the benchmark's tracer rebinds to time it."""
    from .upclosure import (
        classify_case,
        covered_points,
        decode_block,
        encode_separator,
        m_sequence,
        recover_m_next,
    )
    f = sc.use_bound()
    a, b = sc.stage_set("A"), sc.stage_set("B")
    c_final = sc.stage_set("C").final()
    a_final, b_final = a.final(), b.final()
    union = a_final | b_final
    gaps, covered = covered_points(union, f)
    consistent = classify_case(covered, sc.horizon, sc.case)
    max_blocks = 8
    if sc.case.tag == 1:
        # iterate f from k while the boundary stays near the scripted domain
        # and inside the 64-position working window
        cap = min(f.domain - 1, max(union | {16}) + 16, 58)
        values = [sc.case.k]
        while len(values) <= max_blocks and values[-1] <= cap:
            values.append(f(values[-1]))
        missing = None
    else:
        values, missing = m_sequence(gaps, covered, max_blocks + 1)
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
    # a block or boundary the construction guarantees but this run lacks is
    # a hard fault, named by its place
    for n in range(len(values) - 1):
        try:
            bit, stage = decode_block(z, a, b, values[n], values[n + 1], sc.horizon)
        except ValueError as exc:
            raise HardFault(f"block {n} ({values[n]}, {values[n + 1]}]: {exc}")
        out["blocks"].append((n, bit, stage, 1 if n in c_final else 0))
    if sc.case.tag == 2:
        table = sc.agreement_table()
        for n in range(len(values) - 1):
            try:
                got, stage = recover_m_next(z, values[: n + 1], table)
            except ValueError as exc:
                raise HardFault(f"boundary {n + 1} = {values[n + 1]}: {exc}")
            out["recovered"].append((n + 1, got, stage, values[n + 1]))
    return out


def run_scenario(sc: Scenario) -> Trace:
    """Run the construction and serialize the run."""
    return run_traced(sc)[0]


def run_traced(sc: Scenario):
    """The Trace of one run of sc, and the (run, log) of that run, for a
    caller that also checks it."""
    text = sc.canonical()
    module = construction_module(sc.construction)
    ran = module.fresh(sc)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Trace(sc, text, digest, module.encode(ran[1])), ran


# ---------------------------------------------------------------------------
# parsing


def parse_trace(text: str) -> Trace:
    """Check the frame (see above), then audit; the body is handed on as the
    lines between scenario-end and the last line, `end`."""
    lines = text.splitlines()
    try:
        begin = lines.index("scenario-begin")
        end = lines.index("scenario-end", begin)
    except ValueError:
        raise UsageError("trace lacks a scenario-begin or scenario-end line")
    scenario_text = "\n".join(lines[begin + 1 : end]) + "\n"
    try:
        scenario = parse_scenario(scenario_text)
    except UsageError as exc:
        if exc.location is None:
            raise
        lineno = begin + 1 + int(exc.location[5:])  # it reads `line N`
        raise UsageError(str(exc).partition(": ")[2], f"line {lineno}") from None
    digest = hashlib.sha256(scenario_text.encode()).hexdigest()
    want = [
        HEADER,
        *header_lines(scenario.construction, digest, scenario.horizon),
        "scenario-begin",
    ]
    # no other line of `want` reads scenario-begin, so a missing or extra
    # header line shows up as a difference among the first len(want) lines
    for lineno, (got, line) in enumerate(zip(lines, want), start=1):
        if got != line:
            raise UsageError(
                f"header reads {got!r}, expected {line!r}", location=f"line {lineno}"
            )
    departs = scenario.noncanonical_line
    if departs is not None:
        raise UsageError(
            f"embedded scenario is not canonical: {lines[begin + departs]!r}",
            location=f"line {begin + 1 + departs}",
        )
    last = len(lines)
    while not lines[last - 1].strip():  # stops at scenario-end at the latest
        last -= 1
    if lines[last - 1] != "end":
        raise UsageError(
            f"last line reads {lines[last - 1]!r}, expected 'end'",
            location=f"line {last}",
        )
    audit_scenario(scenario)
    return Trace(scenario, scenario_text, digest, lines[end + 1 : last - 1])
