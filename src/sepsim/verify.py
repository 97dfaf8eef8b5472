"""Trace verification: re-derive every checkable invariant from a trace.

Verification is a pure function of the trace bytes: the canonical scenario
is embedded in the trace, so the verifier runs the construction once afresh
and checks each named invariant without any outside state. The
construction's module (`scenario.construction_module`) supplies the hooks:
fresh(sc) -> (run, log), encode(log) -> body lines, decode(body, horizon) ->
log, and check(sc, run, log, detail) -> (checks, caveats).

A body that equals the fresh log's encoding, token for token, is not
decoded: check reads the fresh run's own objects, with detail None. Any
other body is decoded, so a malformed one exits 2 with no report, and check
reads the decoded log, with detail naming its first record that differs
from the fresh run.
"""

from __future__ import annotations

from .errors import HardFault, UsageError
from .report import VerificationReport, first_divergence
from .scenario import construction_module
from .trace import ParsedTrace


def verify_trace(parsed: ParsedTrace) -> VerificationReport:
    report = VerificationReport(
        construction=parsed.construction, scenario_hash=parsed.scenario_hash
    )
    module = construction_module(parsed.construction)
    sc = parsed.scenario
    try:
        try:
            run, log = module.fresh(sc)
        except HardFault:
            # a malformed body exits 2 even when the run hard-faults
            module.decode(parsed.body, sc.horizon)
            raise
        fresh = map(str.split, module.encode(log))
        detail = first_divergence(parsed.body, fresh) or None
        if detail is not None:
            log = module.decode(parsed.body, sc.horizon)
        report.checks, report.caveats = module.check(sc, run, log, detail)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed trace body: {exc}")
    return report
