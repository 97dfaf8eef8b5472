"""Trace verification: re-derive every checkable invariant from a trace.

Verification is a pure function of the trace bytes: the canonical scenario
is embedded in the trace, so the verifier can rebuild stage views, run the
construction once afresh where agreement checks need a reference, and check
each named invariant without any outside state. Body records come from the
decoders in `trace`.
"""

from __future__ import annotations

from .anticomplete import verify_anticomplete
from .enumcore import is_separator
from .errors import UsageError
from .nosupermax import (
    AttemptRun,
    NosupermaxResult,
    SpeedupResult,
    run_nosupermax,
    scenario_outcome,
    verify_nosupermax,
)
from .report import (
    CheckResult,
    VerificationReport,
    first_counterexample,
    first_divergence,
)
from .trace import (
    ParsedTrace,
    decode_anticomplete,
    decode_nosupermax,
    decode_twodegrees,
    decode_upclosure,
    encode_run,
    twodegrees_inputs,
)
from .twodegrees import TwoDegreesRun, verify_twodegrees
from .upclosure import simultaneous_agreement_stages


def verify_trace(parsed: ParsedTrace) -> VerificationReport:
    report = VerificationReport(
        construction=parsed.construction, scenario_hash=parsed.scenario_hash
    )
    if parsed.construction not in _VERIFIERS:
        raise UsageError(f"unknown construction {parsed.construction}")
    try:
        _VERIFIERS[parsed.construction](parsed, report)
    except UsageError:
        raise
    except (ValueError, IndexError, KeyError, TypeError) as exc:
        raise UsageError(f"malformed trace body: {exc}")
    return report


def _fresh_run_check(name, parsed: ParsedTrace) -> CheckResult:
    """The recorded body against a fresh run of the embedded scenario, record
    by record."""
    fresh = [line.split() for line in encode_run(parsed.scenario)]
    detail = first_divergence(parsed.body, fresh)
    return CheckResult(name, not detail, detail)


# ---------------------------------------------------------------------------


def _verify_anticomplete_trace(parsed: ParsedTrace, report: VerificationReport):
    records, finals = decode_anticomplete(parsed.body, parsed.horizon)
    report.checks.append(_fresh_run_check("run-exactness", parsed))
    checks, caveats = verify_anticomplete(
        records, finals["A"], finals["B"], finals["D"], parsed.horizon
    )
    report.checks.extend(checks)
    report.caveats.extend(caveats)


# ---------------------------------------------------------------------------


def _verify_upclosure_trace(parsed: ParsedTrace, report: VerificationReport):
    sc = parsed.scenario
    recorded = decode_upclosure(parsed.body)
    values = recorded["m_values"]

    report.checks.append(
        CheckResult(
            "mseq-monotone",
            all(u < v for u, v in zip(values, values[1:])),
            "recorded boundaries not strictly increasing",
        )
    )
    report.checks.append(_fresh_run_check("pipeline-exactness", parsed))

    a, b = sc.stage_set("A"), sc.stage_set("B")
    z = recorded["z"]
    if z is not None:
        dom_a = {e for e in a.final() if e < z.length}
        dom_b = {e for e in b.final() if e < z.length}
        report.checks.append(
            CheckResult(
                "separator-property",
                is_separator(z, dom_a, dom_b),
                "recorded string is not a separator of the scripted sides",
            )
        )
        viol = []
        for n in range(len(values) - 1):
            if values[n + 1] >= z.length:
                break
            stages = simultaneous_agreement_stages(
                z, a, b, values[n], values[n + 1], sc.horizon
            )
            if len(stages) > 0:
                viol.append((n, stages[0]))
                break
        report.checks.append(
            first_counterexample(
                "mutual-exclusion",
                viol,
                "block {0} agrees with both sides at stage {1}",
            )
        )
    report.checks.append(
        first_counterexample(
            "roundtrip-decode",
            [blk for blk in recorded["blocks"] if blk[1] != blk[3]],
            "block {0} decoded {1}, target holds {3}",
        )
    )
    report.checks.append(
        first_counterexample(
            "boundary-recovery",
            [r for r in recorded["recovered"] if r[1] != r[3]],
            "recovered boundary {0} as {1}, direct value {3}",
        )
    )
    if recorded["m_missing"] is not None:
        report.caveats.append(
            f"boundary {recorded['m_missing']} not witnessed below the horizon"
        )
    report.caveats.append(
        "case declaration checked for consistency only; the true split is"
        " not decidable from finite data"
    )


# ---------------------------------------------------------------------------


def _verify_nosupermax_trace(parsed: ParsedTrace, report: VerificationReport):
    sc = parsed.scenario
    sections, recorded_certs = decode_nosupermax(parsed.body)
    fresh = run_nosupermax(
        sc.sets.get("A", []), sc.sets.get("B", []), sc.horizon, sc.certs
    )
    # a recorded attempt takes its scripted events from the fresh attempt in
    # its place; a section the fresh run lacks gets none
    attempts = []
    for i, (att, base, horizon, records) in enumerate(sections):
        ref = fresh.attempts[i] if i < len(fresh.attempts) else None
        events = (ref.a.events, ref.b.events) if ref else ([], [])
        attempts.append(AttemptRun.from_records(att, base, *events, horizon, records))
    outcomes = [scenario_outcome(run, sc.horizon) for run in attempts]
    cert_results = [
        (sc.certs[i], SpeedupResult(accepted, reason, witness, stage_map or []))
        for i, (_, accepted, witness, reason, stage_map) in enumerate(recorded_certs)
    ]
    recorded = NosupermaxResult(attempts, outcomes, cert_results)
    checks, caveats = verify_nosupermax(recorded, fresh)
    report.checks.extend(checks)
    report.caveats.extend(caveats)


# ---------------------------------------------------------------------------


def _verify_twodegrees_trace(parsed: ParsedTrace, report: VerificationReport):
    sc = parsed.scenario
    records, _ = decode_twodegrees(parsed.body, parsed.horizon)
    report.checks.append(_fresh_run_check("run-exactness", parsed))
    checks, caveats = verify_twodegrees(
        TwoDegreesRun(*twodegrees_inputs(sc)).replay(records)
    )
    report.checks.extend(checks)
    report.caveats.extend(caveats)


_VERIFIERS = {
    "anticomplete": _verify_anticomplete_trace,
    "upclosure": _verify_upclosure_trace,
    "nosupermax": _verify_nosupermax_trace,
    "twodegrees": _verify_twodegrees_trace,
}
