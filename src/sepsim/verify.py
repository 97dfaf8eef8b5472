"""Trace verification: re-derive every checkable invariant from a trace.

Verification is a pure function of the trace bytes: the canonical scenario
is embedded in the trace, so the verifier can rebuild stage views, replay
the construction where exactness demands it, and check each named invariant
without any outside state. Body records come from the decoders in `trace`.
"""

from __future__ import annotations

from .anticomplete import verify_anticomplete
from .enumcore import is_separator
from .errors import UsageError
from .nosupermax import (
    AttemptRun,
    NosupermaxResult,
    apply_speedup,
    detect_outcome,
    verify_nosupermax,
)
from .report import CheckResult, VerificationReport
from .trace import (
    ParsedTrace,
    decode_anticomplete,
    decode_nosupermax,
    decode_twodegrees,
    decode_upclosure,
    encode_run,
    first_divergence,
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


# ---------------------------------------------------------------------------


def _verify_anticomplete_trace(parsed: ParsedTrace, report: VerificationReport):
    records, finals = decode_anticomplete(parsed.body)
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
    detail = first_divergence(parsed.body, encode_run(sc))
    report.checks.append(CheckResult("pipeline-exactness", not detail, detail))

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
        viol = None
        for n in range(len(values) - 1):
            if values[n + 1] >= z.length:
                break
            stages = simultaneous_agreement_stages(
                z, a, b, values[n], values[n + 1], sc.horizon
            )
            if len(stages) > 0:
                viol = (n, stages[0])
                break
        report.checks.append(
            CheckResult(
                "mutual-exclusion",
                viol is None,
                f"block {viol[0]} agrees with both sides at stage {viol[1]}"
                if viol
                else "",
            )
        )
    bad = [blk for blk in recorded["blocks"] if blk[1] != blk[3]]
    report.checks.append(
        CheckResult(
            "roundtrip-decode",
            not bad,
            f"block {bad[0][0]} decoded {bad[0][1]}, target holds {bad[0][3]}"
            if bad
            else "",
        )
    )
    bad = [r for r in recorded["recovered"] if r[1] != r[3]]
    report.checks.append(
        CheckResult(
            "boundary-recovery",
            not bad,
            f"recovered boundary {bad[0][0]} as {bad[0][1]}, direct value {bad[0][3]}"
            if bad
            else "",
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
    window = max(1, parsed.horizon // 5)
    attempts = []
    cert_results = []
    a_events = list(sc.sets.get("A", []))
    b_events = list(sc.sets.get("B", []))
    base = -1
    horizon = parsed.horizon
    ok_chain = True
    for i, (att, rec_base, rec_horizon, records) in enumerate(sections):
        report.checks.append(
            CheckResult(
                f"a{att}-timeline-agrees",
                ok_chain and rec_base == base and rec_horizon == horizon,
                f"recorded base {rec_base} horizon {rec_horizon},"
                f" derived base {base} horizon {horizon}",
            )
        )
        run = AttemptRun.from_records(
            att, rec_base, a_events, b_events, rec_horizon, records
        )
        attempts.append(run)
        if i < len(recorded_certs):
            cert = sc.certs[i]
            res = apply_speedup(run, cert)
            _, recorded_ok, _, _, recorded_map = recorded_certs[i]
            agree = res.accepted == recorded_ok
            report.checks.append(
                CheckResult(
                    f"a{att}-cert-outcome-agrees",
                    agree,
                    f"recorded {'accepted' if recorded_ok else 'rejected'},"
                    f" recomputed {'accepted' if res.accepted else 'rejected'}"
                    f" ({res.reason})",
                )
            )
            if res.accepted and recorded_map is not None:
                # the bullets check downstream re-validates the recorded map
                res.stage_map = recorded_map
            cert_results.append((cert, res))
            if res.accepted:
                a_events = res.new_a_events
                b_events = res.new_b_events
                base = res.new_base
                horizon = max(1, res.new_horizon)
            else:
                ok_chain = len(sections) == i + 1
    outcomes = [
        detect_outcome(run, max(1, min(window, run.horizon))) for run in attempts
    ]
    result = NosupermaxResult(attempts, outcomes, cert_results)
    checks, caveats = verify_nosupermax(result)
    report.checks.extend(checks)
    report.caveats.extend(caveats)


# ---------------------------------------------------------------------------


def _verify_twodegrees_trace(parsed: ParsedTrace, report: VerificationReport):
    sc = parsed.scenario
    records, _ = decode_twodegrees(parsed.body)
    detail = first_divergence(parsed.body, encode_run(sc))
    report.checks.append(CheckResult("run-exactness", not detail, detail))
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
