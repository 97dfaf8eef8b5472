"""Trace verification: re-derive every checkable invariant from a trace.

The trace embeds its canonical scenario, so verifying is a pure function of
its bytes: the scenario runs once afresh through its construction's hooks
(`scenario.construction_module`): fresh(sc) -> (run, log), encode(log) ->
body lines, decode(body, horizon) -> log and check(sc, run, log, detail) ->
(checks, caveats). A body whose lines equal the fresh encoding is neither
split nor decoded, and check reads the fresh run's own objects, with detail
None. Any other body is split into tokens; one that still differs is
decoded, so a malformed one exits 2 with no report, and check reads the
decoded log, with detail naming its first record that differs from the run.
"""

from __future__ import annotations

from .errors import HardFault, UsageError
from .report import VerificationReport, first_divergence
from .scenario import construction_module
from .trace import Trace


def split_body(lines) -> list[list[str]]:
    """One token list per non-blank line of a trace body."""
    return [parts for parts in map(str.split, lines) if parts]


def verify_trace(trace: Trace) -> VerificationReport:
    return check_run(trace)


def check_run(trace: Trace, ran=None) -> VerificationReport:
    """The report on a trace. `ran` is the (run, log) that `run_traced` made
    the trace of; without it the scenario runs afresh here, and a body that
    differs from that run's is decoded for the checks to read."""
    module = construction_module(trace.construction)
    sc = trace.scenario
    detail = None
    try:
        if ran is None:
            try:
                ran = module.fresh(sc)
            except HardFault:
                # a malformed body exits 2 even when the run hard-faults
                module.decode(split_body(trace.body), sc.horizon)
                raise
            fresh = module.encode(ran[1])
            if trace.body != fresh:
                body = split_body(trace.body)
                detail = first_divergence(body, map(str.split, fresh)) or None
                if detail is not None:
                    ran = ran[0], module.decode(body, sc.horizon)
        report = VerificationReport(trace.construction, trace.scenario_hash)
        report.checks, report.caveats = module.check(sc, *ran, detail)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed trace body: {exc}")
    return report
