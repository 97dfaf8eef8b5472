"""Trace verification: re-derive every checkable invariant from a trace.

Verification is a pure function of the trace bytes: the canonical scenario
is embedded in the trace, so the verifier can rebuild stage views, run the
construction once afresh where agreement checks need a reference, and check
each named invariant without any outside state. `verify_trace` hands the
trace and an empty report to the verify_trace(parsed, report) of the
construction's module, which adds its checks and caveats. Most decode the
body and check it against a fresh run with `fresh_run_check`. Anticomplete
runs the scenario once and compares the body with that run's encoding
first: a matching body is not decoded, and its invariants are checked on
the fresh run's own records.
"""

from __future__ import annotations

from .errors import UsageError
from .report import CheckResult, VerificationReport, first_divergence
from .scenario import construction_module
from .trace import ParsedTrace


def verify_trace(parsed: ParsedTrace) -> VerificationReport:
    report = VerificationReport(
        construction=parsed.construction, scenario_hash=parsed.scenario_hash
    )
    module = construction_module(parsed.construction)
    try:
        module.verify_trace(parsed, report)
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed trace body: {exc}")
    return report


def fresh_run_check(name, parsed: ParsedTrace) -> CheckResult:
    """The recorded body against a fresh run of the embedded scenario, record
    by record."""
    fresh = construction_module(parsed.construction).trace_body(parsed.scenario)
    detail = first_divergence(parsed.body, [line.split() for line in fresh])
    return CheckResult(name, not detail, detail)
