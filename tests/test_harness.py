"""Scenario loading, trace round trips, verification dispatch, CLI, lint."""

import ast
import importlib.util
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepsim
import sepsim.scenario
import sepsim.trace
import sepsim.verify
from cli_env import cli_env
from naive_parse import naive_parse_scenario
from sepsim.anticomplete import run_anticomplete
from sepsim.cli import main
from sepsim.corpus import (
    anticomplete_scenario,
    chain_certificates,
    nosupermax_scenario,
    twodegrees_scenario,
    upclosure_scenario,
)
from sepsim.errors import HypothesisViolation, UsageError
from sepsim.functionals import OracleProgram
from sepsim.nosupermax import run_nosupermax
from sepsim.report import first_divergence
from sepsim.scenario import (
    CONSTRUCTIONS,
    Scenario,
    load_scenario,
    load_scenario_file,
    parse_scenario,
)
from sepsim.trace import (
    decode_anticomplete,
    decode_nosupermax,
    decode_twodegrees,
    decode_upclosure,
    encode_event_log,
    encode_nosupermax,
    encode_upclosure,
    parse_trace,
    run_scenario,
    run_upclosure_pipeline,
    twodegrees_inputs,
)
from sepsim.twodegrees import run_twodegrees
from sepsim.verify import verify_trace

SAMPLES = Path(__file__).resolve().parents[1] / "scenarios" / "samples"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sepsim"
FAULTS = SAMPLES.parent / "faults"
REPORTS = SAMPLES.parent / "reports"

MINIMAL_TWODEGREES = """\
sepsim-scenario 1
construction twodegrees
horizon 10
end
"""
MINIMAL_ANTICOMPLETE = MINIMAL_TWODEGREES.replace("twodegrees", "anticomplete")


class TestScenarioParsing:
    def test_minimal_loads(self):
        sc = load_scenario(MINIMAL_TWODEGREES)
        assert sc.construction == "twodegrees"
        assert sc.horizon == 10

    def test_canonical_round_trip(self):
        for sc in (
            anticomplete_scenario(0, 60),
            nosupermax_scenario(0, 60),
            twodegrees_scenario(0, 60),
            upclosure_scenario(0, 1),
            upclosure_scenario(0, 2),
        ):
            text = sc.canonical()
            again = parse_scenario(text)
            assert again.canonical() == text
            assert again.digest() == sc.digest()

    def test_stage_beyond_horizon_named(self):
        text = MINIMAL_TWODEGREES.replace("end\n", "set C 3 10\nend\n")
        with pytest.raises(UsageError, match=r"\(3, 10\)"):
            load_scenario(text)

    def test_parse_error_carries_line(self):
        text = MINIMAL_TWODEGREES.replace("end\n", "set C three 4\nend\n")
        with pytest.raises(UsageError, match="line 4"):
            load_scenario(text)

    def test_unknown_set_rejected(self):
        text = MINIMAL_TWODEGREES.replace("end\n", "set Q 1 2\nend\n")
        with pytest.raises(UsageError, match="set Q not allowed"):
            load_scenario(text)

    def test_unknown_construction(self):
        text = MINIMAL_TWODEGREES.replace("twodegrees", "diagonal")
        with pytest.raises(UsageError, match="unknown construction"):
            load_scenario(text)

    def test_upclosure_needs_case(self):
        sc = upclosure_scenario(1, 2)
        text = "\n".join(
            l for l in sc.canonical().splitlines() if not l.startswith("case")
        )
        with pytest.raises(UsageError, match="declare their case"):
            load_scenario(text + "\n")

    def test_hypothesis_violation_located(self):
        sc = upclosure_scenario(2, 2)
        # flip one gamma output: the operator no longer computes the target
        bad = None
        for i, r in enumerate(sc.rules["gamma"]):
            if r.input == 4:
                from sepsim.functionals import OracleRule

                bad = OracleRule(
                    guard=r.guard,
                    input=4,
                    output=1 - r.output,
                    use=r.use,
                    available_at=r.available_at,
                )
                sc.rules["gamma"][i] = bad
                break
        assert bad is not None
        with pytest.raises(HypothesisViolation, match="bit 4"):
            load_scenario(sc.canonical())

    def test_nosupermax_disjointness_audited(self):
        sc = Scenario(
            construction="nosupermax",
            horizon=20,
            sets={"A": [(3, 2)], "B": [(3, 5)]},
        )
        with pytest.raises(HypothesisViolation, match="intersect"):
            load_scenario(sc.canonical())

    def test_horizon_ceiling(self):
        at_ceiling = MINIMAL_TWODEGREES.replace("horizon 10", "horizon 10000")
        assert load_scenario(at_ceiling).horizon == 10000
        with pytest.raises(UsageError, match="horizon 10001 exceeds 10000"):
            load_scenario(MINIMAL_TWODEGREES.replace("horizon 10", "horizon 10001"))
        with pytest.raises(UsageError, match="horizon 10001 exceeds 10000"):
            load_scenario(MINIMAL_TWODEGREES, horizon_override=10001)
        # header and embedded scenario alike
        text = run_scenario(load_scenario(MINIMAL_TWODEGREES)).render()
        with pytest.raises(UsageError, match="horizon 10001 exceeds 10000"):
            parse_trace(text.replace("horizon 10\n", "horizon 10001\n"))

    @pytest.mark.parametrize(
        "line, want",
        [
            ("set K 10 2 7", 4),
            ("set K 10", 4),
            ("horizon 10 10", 2),
            ("construction twodegrees twodegrees", 2),
            ("bound f 0 1 2", 4),
            ("cert 1 3 4 even 20 20", 6),
            ("case 1 3 4", 3),
            ("case 1", 3),
            ("case 2 5", 2),
            ("case", 2),
            ("end end", 1),
        ],
    )
    def test_record_arity(self, line, want):
        # a trailing token used to vanish: `set K 10 2 7` loaded as `set K 10 2`
        text = MINIMAL_TWODEGREES.replace("end\n", line + "\nend\n")
        with pytest.raises(UsageError, match=f"token count not {want}$") as err:
            parse_scenario(text)
        assert err.value.location == "line 4"
        assert parse_outcome(naive_parse_scenario, text) == parse_outcome(
            parse_scenario, text
        )

    def test_case_tag_is_one_or_two(self):
        text = upclosure_scenario(0, 2).canonical().replace("case 2\n", "case 3\n")
        with pytest.raises(UsageError, match="no such case 3"):
            parse_scenario(text)

    def test_element_bound(self):
        # an oracle int as wide as 10^15 bits would exhaust memory
        at_bound = MINIMAL_TWODEGREES.replace("end\n", "set K 4106 3\nend\n")
        assert load_scenario(at_bound).sets["K"] == [(4106, 3)]
        text = upclosure_scenario(0, 2).canonical()
        line = next(l for l in text.splitlines() if l.startswith("set A "))
        huge = " ".join(["set", "A", str(10**15), line.split()[3]])
        with pytest.raises(UsageError, match="exceeds the horizon by more than 4096"):
            load_scenario(text.replace(line, huge))


FUZZ_TEXTS = [
    sc.canonical()
    for sc in (
        anticomplete_scenario(0, 60),
        nosupermax_scenario(0, 60),
        nosupermax_scenario(1, 60),
        twodegrees_scenario(0, 60),
        upclosure_scenario(0, 1),
        upclosure_scenario(0, 2),
    )
]
FUZZ_WORDS = [
    "end", "set", "rule", "bound", "cert", "case", "horizon", "construction",
    "A", "B", "C", "K", "W0", "f", "phi0", "phi7", "gamma", "odd", "even",
    "#", "x", "-", "1.5", "0x10",
]


def mutate_tokens(text, op, token, data):
    """One token of one line of the text replaced, deleted or duplicated;
    any other op leaves the tokens as they are."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    j = data.draw(st.integers(0, len(tokens) - 1))
    if op == "replace":
        tokens[j] = token
    elif op == "delete":
        del tokens[j]
    elif op == "duplicate":
        tokens.insert(j, tokens[j])
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def edit_guard(text, op, data):
    """One rule line's guard pairs reversed, one pair repeated, or one
    position repeated with the other bit; the pair count follows."""
    lines = text.splitlines()
    rules = [
        i for i, l in enumerate(lines) if l.startswith("rule ") and l.split()[6] != "0"
    ]
    if op == "none" or not rules:
        return text
    i = data.draw(st.sampled_from(rules))
    head, nums = lines[i].split()[:7], lines[i].split()[7:]
    pairs = [nums[k : k + 2] for k in range(0, len(nums), 2)]
    k = data.draw(st.integers(0, len(pairs) - 1))
    if op == "reverse":
        pairs.reverse()
    elif op == "repeat":
        pairs.insert(data.draw(st.integers(0, len(pairs))), pairs[k])
    else:
        clash = [pairs[k][0], str(1 - int(pairs[k][1]))]
        pairs.insert(data.draw(st.integers(0, len(pairs))), clash)
    head[6] = str(len(pairs))
    lines[i] = " ".join(head + [t for pair in pairs for t in pair])
    return "\n".join(lines) + "\n"


FUZZ_TOKENS = st.one_of(
    st.sampled_from(FUZZ_WORDS),
    st.integers(-3, 70).map(str),
    st.integers(min_value=-(10**15), max_value=10**15).map(str),
)


def parse_outcome(parse, text):
    """The canonical text of the parsed scenario, or the error's type, its
    message (with its line location) and its location."""
    try:
        return ("ok", parse(text).canonical())
    except Exception as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "location", None))


class TestScenarioFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        text=st.sampled_from(FUZZ_TEXTS),
        op=st.sampled_from(["replace", "delete", "duplicate"]),
        token=FUZZ_TOKENS,
        data=st.data(),
    )
    def test_single_token_mutation(self, text, op, token, data):
        # a mutated scenario loads, with a canonical form that parses back to
        # itself, or is refused with a SepsimError the CLI maps to 2 or 3
        try:
            sc = load_scenario(mutate_tokens(text, op, token, data))
        except (UsageError, HypothesisViolation):
            return
        canonical = sc.canonical()
        assert parse_scenario(canonical).canonical() == canonical


class TestParseDifferential:
    """parse_scenario against the naive record-by-record parser."""

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.sampled_from(FUZZ_TEXTS),
        guard_op=st.sampled_from(["none", "reverse", "repeat", "clash"]),
        op=st.sampled_from(["replace", "delete", "duplicate", "none"]),
        token=FUZZ_TOKENS,
        data=st.data(),
    )
    def test_same_scenario_or_same_error(self, text, guard_op, op, token, data):
        text = mutate_tokens(edit_guard(text, guard_op, data), op, token, data)
        assert parse_outcome(parse_scenario, text) == parse_outcome(
            naive_parse_scenario, text
        )

    def test_shared_guard_text_keeps_its_count_check(self):
        lines = "rule phi0 0 0 4 0 2 1 0 3 1\nrule phi0 1 0 4 0 1 1 0 3 1\n"
        text = MINIMAL_ANTICOMPLETE.replace("end\n", lines + "end\n")
        got = parse_outcome(parse_scenario, text)
        assert got == parse_outcome(naive_parse_scenario, text)
        assert got[1:] == ("line 5: guard pair count mismatch", "line 5")

    @pytest.mark.parametrize(
        "line, error",
        [
            ("rule phi0 0 0 4 0 2 3 1 1 0", None),
            ("rule phi0 0 0 4 0 2 1 1 1 0", "guard mentions a position twice"),
            ("rule phi0 0 0 4 0 2 3 7 3 1", "guard mentions a position twice"),
            ("rule phi0 0 0 4 0 2 3 2 -1 1", "bad guard entry (-1, 1)"),
            (
                "rule phi0 0 0 4 0 2 5 1 1 0",
                "use-honesty violated: guard position 5 >= use 4",
            ),
            ("rule phi0 0 0 4 0 1 1", "guard pair count mismatch"),
            ("rule phi0 0 0 4 0 1 1 x", "invalid literal for int() with base 10: 'x'"),
            ("rule phi0 -1 0 4 0 0", "rule fields must be naturals"),
            ("rule phi0 0 2 4 0 0", "output must be a bit"),
            ("# rule phi0 0 0 4 0 1 1 x", None),
            ("rule phi0 0 0 4 0 0 # 1 x", None),
        ],
    )
    def test_rule_lines(self, line, error):
        text = MINIMAL_ANTICOMPLETE.replace("end\n", line + "\nend\n")
        got = parse_outcome(parse_scenario, text)
        assert got == parse_outcome(naive_parse_scenario, text)
        if error is None:
            assert got[0] == "ok"
        else:
            assert got[0] == "UsageError" and got[2] == "line 4"
            assert got[1].endswith(error)


class TestProgramBuilds:
    def test_program_is_built_once(self):
        sc = load_scenario(anticomplete_scenario(1, 60).canonical())
        for name in sc.rules:
            assert sc.program(name) is sc.program(name)
        by_index = sc.programs_by_index()
        assert all(by_index[int(name[3:])] is sc.program(name) for name in sc.rules)

    def test_pipeline_builds_each_program_once_per_scenario(self, monkeypatch):
        built = []
        init = OracleProgram.__init__

        def counted(self, rules=()):
            built.append(tuple(rules))
            init(self, rules)

        monkeypatch.setattr(OracleProgram, "__init__", counted)
        text = upclosure_scenario(3, 2).canonical()
        sc = load_scenario(text)
        report = verify_trace(parse_trace(run_scenario(sc).render()))
        assert report.passed
        # once for the loaded Scenario, once for the trace's
        assert sorted(sc.rules) == ["delta", "gamma"]
        assert Counter(built) == {tuple(rules): 2 for rules in sc.rules.values()}


class TestRunVerify:
    @pytest.mark.parametrize(
        "sc",
        [
            anticomplete_scenario(1, 120),
            nosupermax_scenario(0, 120),
            nosupermax_scenario(1, 120),
            twodegrees_scenario(1, 120),
            upclosure_scenario(3, 1),
            upclosure_scenario(3, 2),
        ],
        ids=["anticomplete", "nsm-sparse", "nsm-cofinite", "twodegrees", "up1", "up2"],
    )
    def test_run_verify_roundtrip(self, sc):
        load_scenario(sc.canonical())  # audits pass
        trace = run_scenario(sc)
        text = trace.render()
        parsed = parse_trace(text)
        assert parsed.scenario_hash == sc.digest()
        report = verify_trace(parsed)
        assert report.passed, report.render()

    def test_empty_adversary_trace_has_empty_d(self):
        sc = Scenario(construction="anticomplete", horizon=100)
        trace = run_scenario(sc)
        final_d = next(l for l in trace.body if l.startswith("final D"))
        assert final_d == "final D"
        assert not any(" ract " in l for l in trace.body)

    def test_bad_certificate_trace_ends_with_rejection(self):
        sc = nosupermax_scenario(0, 100)  # sparse: the boundary settles
        from sepsim.nosupermax import SpeedupCertificate

        sc.certs = [SpeedupCertificate(1, 3, 4, 0, 20)]
        trace = run_scenario(sc)
        cert_lines = [l for l in trace.body if l.startswith("cert ")]
        assert len(cert_lines) == 1 and " rejected " in cert_lines[0]
        assert trace.body[-1] == cert_lines[0]
        # and only one attempt section exists
        assert not any(l.startswith("attempt 2") for l in trace.body)

    def test_trace_determinism_in_process(self):
        sc = nosupermax_scenario(2, 150)
        assert run_scenario(sc).render() == run_scenario(sc).render()

    def test_report_is_pure_function_of_trace(self):
        sc = twodegrees_scenario(2, 100)
        text = run_scenario(sc).render()
        r1 = verify_trace(parse_trace(text)).render()
        r2 = verify_trace(parse_trace(text)).render()
        assert r1 == r2

    def test_twodegrees_firing_past_the_horizon_gets_a_report(self):
        # a recorded enumeration stamped past the horizon is a divergence
        # from the fresh run, not a malformed body
        sc = load_scenario((SAMPLES / "twodegrees-mixed.scn").read_text())
        lines = run_scenario(sc).render().splitlines()
        i = next(i for i, line in enumerate(lines) if " pfire " in line)
        parts = lines[i].split()
        lines[i] = " ".join(["ev", str(sc.horizon), *parts[2:]])
        report = verify_trace(parse_trace("\n".join(lines) + "\n"))
        failed = {c.name: c.detail for c in report.failures()}
        assert failed["run-exactness"].startswith("record "), report.render()
        assert "fired away from the C entry stage" in failed["column-coding"]

    @pytest.mark.parametrize(
        "path",
        sorted(SAMPLES.glob("*.scn")) + sorted(FAULTS.parent.glob("certs/*.scn")),
        ids=lambda path: f"{path.parent.name}/{path.stem}",
    )
    def test_report_matches_the_committed_one(self, path):
        text = run_scenario(load_scenario(path.read_text())).render()
        committed = REPORTS / path.parent.name / f"{path.stem}.txt"
        assert verify_trace(parse_trace(text)).render() == committed.read_text()

    def test_trailing_token_in_embedded_scenario_rejected(self):
        # the edited scenario renders to the recorded canonical text, so the
        # digest alone would not see it
        text = run_scenario(nosupermax_scenario(0, 60)).render()
        line = next(l for l in text.splitlines() if l.startswith("set A "))
        with pytest.raises(UsageError, match="token count not 4"):
            parse_trace(text.replace(line, line + " 7", 1))

    @pytest.mark.parametrize("stem", ["nosupermax-chain", "twodegrees-mixed"])
    def test_unknown_pairing_scheme_rejected(self, stem, tmp_path):
        sc = load_scenario((SAMPLES / f"{stem}.scn").read_text())
        text = run_scenario(sc).render()
        assert "\npairing greedy-cantor-cube\n" in text
        path = tmp_path / "edited.trc"
        path.write_text(text.replace("greedy-cantor-cube", "bogus-scheme", 1))
        with pytest.raises(UsageError, match="unknown pairing scheme bogus") as err:
            parse_trace(path.read_text())
        assert err.value.location == "line 4"
        assert main(["verify", "--trace", str(path)]) == 2

    def test_tampered_scenario_hash_rejected(self):
        sc = anticomplete_scenario(2, 60)
        text = run_scenario(sc).render()
        # tamper the embedded scenario, not the trace header
        lines = text.splitlines()
        start = lines.index("scenario-begin")
        idx = next(
            i for i in range(start, len(lines)) if lines[i] == "horizon 60"
        )
        lines[idx] = "horizon 61"
        with pytest.raises(UsageError, match="digest"):
            parse_trace("\n".join(lines) + "\n")


def final_line_edits(body):
    """Every body with one `final` line dropped, duplicated in place, or moved
    to another position."""
    for i, line in enumerate(body):
        if line[0] != "final":
            continue
        rest = body[:i] + body[i + 1 :]
        yield rest
        yield body[: i + 1] + [line] + body[i + 1 :]
        for j in range(len(rest) + 1):
            if j != i:
                yield rest[:j] + [line] + rest[j:]


class TestFinalLines:
    @pytest.mark.parametrize(
        "stem",
        [
            "anticomplete-quiet",
            "anticomplete-readers",
            "twodegrees-blocking",
            "twodegrees-mixed",
        ],
    )
    def test_edited_final_line_is_a_usage_error(self, stem):
        sc = load_scenario((SAMPLES / f"{stem}.scn").read_text())
        parsed = parse_trace(run_scenario(sc).render())
        original = parsed.body
        edits = 0
        for body in final_line_edits(original):
            parsed.body = body
            with pytest.raises(UsageError, match="final"):
                verify_trace(parsed)
            edits += 1
        finals = sum(parts[0] == "final" for parts in original)
        assert finals == (3 if stem.startswith("anticomplete") else 2)
        assert edits == finals * (len(original) + 1)

    def test_duplicated_final_line_exits_two(self, tmp_path, capsys):
        sc = load_scenario((SAMPLES / "anticomplete-readers.scn").read_text())
        lines = run_scenario(sc).render().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("final A"))
        path = tmp_path / "dup.trc"
        path.write_text("\n".join(lines[: i + 1] + lines[i:]) + "\n")
        assert main(["verify", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert "record final A out of place in trace body (expected final B)" in err


class TestEventLogBounds:
    @pytest.mark.parametrize("stem", ["anticomplete-readers", "twodegrees-mixed"])
    def test_stage_outside_the_horizon_exits_two(self, stem, tmp_path, capsys):
        sc = load_scenario((SAMPLES / f"{stem}.scn").read_text())
        lines = run_scenario(sc).render().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("ev "))
        for stage in (-1, sc.horizon + 1):
            parts = lines[i].split()
            edited = " ".join(["ev", str(stage), *parts[2:]])
            path = tmp_path / "edited.trc"
            path.write_text("\n".join(lines[:i] + [edited] + lines[i + 1 :]) + "\n")
            assert main(["verify", "--trace", str(path)]) == 2
            err = capsys.readouterr().err
            assert f"record {edited}: stage outside 0..{sc.horizon}" in err

    @pytest.mark.parametrize("stem", ["anticomplete-readers", "twodegrees-mixed"])
    def test_final_stamp_outside_the_horizon_exits_two(self, stem):
        sc = load_scenario((SAMPLES / f"{stem}.scn").read_text())
        parsed = parse_trace(run_scenario(sc).render())
        i, parts = next(
            (i, parts) for i, parts in enumerate(parsed.body)
            if parts[0] == "final" and len(parts) > 2
        )
        element = parts[2].split(":")[0]
        for stamp in (0, sc.horizon + 1):
            edited = [*parts[:2], f"{element}:{stamp}", *parts[3:]]
            parsed.body = parsed.body[:i] + [edited] + parsed.body[i + 1 :]
            with pytest.raises(
                UsageError,
                match=f"record final {parts[1]}: entry {element}:{stamp} stamped"
                f" outside 1..{sc.horizon}",
            ):
                verify_trace(parsed)


class TestUpclosureRecordShapes:
    @pytest.mark.parametrize(
        "edit, detail",
        [
            (("block", "block 0 0"), "record block 0 0: expected 4 integers"),
            (("block", "block 0 0 1 0 5"), "expected 4 integers"),
            (("block", "block 0 x 1 0"), "record block 0 x 1 0: invalid literal"),
            (("recover", "recover 1 2"), "record recover 1 2: expected 4 integers"),
            (("caseok", "caseok yes"), "record caseok yes: expected true or false"),
            (("caseok", "caseok"), "record caseok: expected one field"),
            (("z", "z 0120"), "record z 0120: bits must be a 0/1 string"),
            (("mseq-missing", "mseq-missing 3 4"), "expected one field"),
            (("mseq", "mseq 1 two"), "record mseq 1 two: invalid literal"),
        ],
    )
    def test_malformed_record_is_named(self, edit, detail, tmp_path, capsys):
        kind, replacement = edit
        # the least-point sample is the one with recover records
        sc = load_scenario((SAMPLES / "upclosure-leastpoint.scn").read_text())
        lines = run_scenario(sc).render().splitlines()
        i = next(i for i, line in enumerate(lines) if line.split()[0] == kind)
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(lines[:i] + [replacement] + lines[i + 1 :]) + "\n")
        assert main(["verify", "--trace", str(path)]) == 2
        assert detail in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["caseok", "mseq", "mseq-missing", "z"])
    def test_repeated_single_record_is_named(self, kind):
        sc = load_scenario((SAMPLES / "upclosure-iterated.scn").read_text())
        parsed = parse_trace(run_scenario(sc).render())
        i = next(i for i, parts in enumerate(parsed.body) if parts[0] == kind)
        parsed.body = parsed.body[: i + 1] + parsed.body[i:]
        line = " ".join(parsed.body[i])
        with pytest.raises(UsageError) as excinfo:
            verify_trace(parsed)
        assert str(excinfo.value) == f"record {line}: a second {kind} record"

    def test_non_monotone_mseq_still_gets_a_report(self):
        sc = load_scenario((SAMPLES / "upclosure-iterated.scn").read_text())
        parsed = parse_trace(run_scenario(sc).render())
        i = next(i for i, parts in enumerate(parsed.body) if parts[0] == "mseq")
        values = parsed.body[i][1:]
        parsed.body[i] = ["mseq", values[0], *values]
        report = verify_trace(parsed)
        assert not report.passed
        assert any(c.name == "mseq-monotone" and not c.passed for c in report.checks)


AC_SAMPLE_LINES = {
    stem: run_scenario(load_scenario_file(SAMPLES / f"{stem}.scn")).render()
    for stem in ("anticomplete-readers", "anticomplete-quiet")
}


class TestAnticompleteEdits:
    @settings(max_examples=100, deadline=None)
    @given(
        stem=st.sampled_from(sorted(AC_SAMPLE_LINES)),
        op=st.sampled_from(["drop", "duplicate", "swap"]),
        data=st.data(),
    )
    def test_edited_body_line_fails_or_exits_two(self, stem, op, data):
        # run-exactness catches the edits that no invariant check sees
        lines = AC_SAMPLE_LINES[stem].splitlines()
        first, last = lines.index("scenario-end") + 1, len(lines) - 2
        i = data.draw(st.integers(first, last))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = i + 1 if i < last else i - 1
            assert lines[i] != lines[j]
            lines[i], lines[j] = lines[j], lines[i]
        try:
            report = verify_trace(parse_trace("\n".join(lines) + "\n"))
        except UsageError:
            return
        assert not report.passed, report.render()


def expected_log(sc):
    """The run's records, taken from the construction itself, with the
    encoder and decoder of its trace body."""
    if sc.construction == "upclosure":
        return run_upclosure_pipeline(sc), encode_upclosure, decode_upclosure
    if sc.construction == "nosupermax":
        result = run_nosupermax(
            sc.sets.get("A", []), sc.sets.get("B", []), sc.horizon, sc.certs
        )
        attempts = [(r.attempt, r.base, r.horizon, r.records) for r in result.attempts]
        certs = [
            (
                cert.attempt,
                res.accepted,
                res.witness_stage,
                res.reason,
                res.stage_map if res.accepted else None,
            )
            for cert, res in result.cert_results
        ]
        return (attempts, certs), encode_nosupermax, decode_nosupermax
    if sc.construction == "anticomplete":
        run = run_anticomplete(sc.programs_by_index(), sc.horizon)
        sets, decode = {"A": run.a, "B": run.b, "D": run.d}, decode_anticomplete
    else:
        run = run_twodegrees(*twodegrees_inputs(sc))
        sets, decode = {"A": run.a, "B": run.b}, decode_twodegrees
    finals = {name: s.events for name, s in sets.items()}
    return (run.records, finals), encode_event_log, partial(decode, horizon=sc.horizon)


def codec_scenarios():
    """Every sample plus three corpus scenarios of each construction."""
    samples = sorted(SAMPLES.glob("*.scn"))
    out = [pytest.param(load_scenario(p.read_text()), id=p.stem) for p in samples]
    for seed in (0, 3, 6):
        out.append(pytest.param(anticomplete_scenario(seed, 300), id=f"ac-{seed}"))
        out.append(pytest.param(twodegrees_scenario(seed, 300), id=f"td-{seed}"))
        out.append(pytest.param(upclosure_scenario(seed, 1), id=f"up1-{seed}"))
        out.append(pytest.param(upclosure_scenario(seed, 2), id=f"up2-{seed}"))
    for seed in (0, 1, 3):
        sc = nosupermax_scenario(seed, 300)
        sc.certs = chain_certificates(sc, want=2) if seed == 1 else []
        out.append(pytest.param(sc, id=f"nsm-{seed}"))
    return out


CODEC_SCENARIOS = codec_scenarios()


class TestRecordCodecs:
    @pytest.mark.parametrize("sc", CODEC_SCENARIOS)
    def test_body_round_trip(self, sc):
        log, encode, decode = expected_log(sc)
        body = run_scenario(sc).body
        decoded = decode([line.split() for line in body])
        assert decoded == log
        assert encode(decoded) == body

    def test_scenarios_cover_empty_enumeration_runs(self):
        # `a  b` (two spaces) is an anticomplete act whose two runs are empty
        bodies = [
            run_scenario(p.values[0]).body
            for p in CODEC_SCENARIOS
            if p.values[0].construction == "anticomplete"
        ]
        assert any(line.endswith(" a  b") for body in bodies for line in body)

    def test_first_divergence_names_the_record(self):
        body = [["caseok", "true"], ["mseq", "1", "3"]]
        assert first_divergence(body, [["caseok", "true"], ["mseq", "1", "3"]]) == ""
        assert (
            first_divergence(body, [["caseok", "true"], ["mseq", "1", "4"]])
            == "record 2: mseq 1 3 (fresh run: mseq 1 4)"
        )
        assert (
            first_divergence(body[:1], [["caseok", "true"], ["mseq", "1", "3"]])
            == "record 2: end (fresh run: mseq 1 3)"
        )
        assert (
            first_divergence([("ev", 4, "xin", 7)], [("ev", 4, "xin", 9)])
            == "record 1: ev 4 xin 7 (fresh run: ev 4 xin 9)"
        )


CHAIN_SCENARIO = load_scenario_file(SAMPLES / "nosupermax-chain.scn")
CHAIN_TRACE = run_scenario(CHAIN_SCENARIO).render()
CHAIN_LINES = CHAIN_TRACE.splitlines()
FIRST_BODY, LAST_BODY = CHAIN_LINES.index("scenario-end") + 1, len(CHAIN_LINES) - 2
SECTION_EDITS = {"deleted": lambda sec: [], "duplicated": lambda sec: sec + sec}


def edit_section(attempt, edit):
    """The chain trace with the lines of one attempt section, begin to end,
    replaced by edit(section)."""
    lines = list(CHAIN_LINES)
    head = f"attempt {attempt} begin "
    begin = next(i for i, line in enumerate(lines) if line.startswith(head))
    end = lines.index(f"attempt {attempt} end", begin) + 1
    return "\n".join(lines[:begin] + edit(lines[begin:end]) + lines[end:]) + "\n"


class TestNosupermaxChainVerify:
    """The chain sample: three attempts linked by two certificates."""

    @pytest.mark.parametrize("edit", SECTION_EDITS.values(), ids=SECTION_EDITS.keys())
    def test_edited_last_section_fails_its_timeline(self, edit):
        report = verify_trace(parse_trace(edit_section(3, edit)))
        failed = {c.name for c in report.failures()}
        assert "a3-timeline-agrees" in failed, report.render()

    def test_verify_applies_each_certificate_once(self, monkeypatch):
        parsed = parse_trace(CHAIN_TRACE)
        assert [cert.attempt for cert in parsed.scenario.certs] == [1, 2]
        original = sepsim.nosupermax.apply_speedup
        calls = []

        def counted(run, cert):
            calls.append(cert.attempt)
            return original(run, cert)

        # every module that holds the function by name
        for name, module in list(sys.modules.items()):
            held = getattr(module, "apply_speedup", None)
            if name.startswith("sepsim") and held is original:
                monkeypatch.setattr(module, "apply_speedup", counted)
        assert verify_trace(parsed).passed
        assert sorted(calls) == [1, 2]

    def test_failure_details_name_real_differences(self):
        texts = [path.read_text() for path in sorted(FAULTS.glob("nosupermax-*.trc"))]
        texts += [edit_section(3, edit) for edit in SECTION_EDITS.values()]
        for text in texts:
            for check in verify_trace(parse_trace(text)).failures():
                assert "()" not in check.detail, check.line()
                if check.name.endswith("-timeline-agrees"):
                    recorded, fresh = check.detail.split(", fresh run ")
                    assert recorded.removeprefix("recorded ") != fresh, check.line()

    def test_census_names_an_undefined_settled_point(self):
        # attempt 1 drops every entry at the certificate's settling stage 10
        lines = list(CHAIN_LINES)
        i = next(i for i, l in enumerate(lines) if l.startswith("ev 10 boundary "))
        lines[i] = "ev 10 boundary 0"
        report = verify_trace(parse_trace("\n".join(lines) + "\n"))
        failed = {c.name: c.detail for c in report.failures()}
        assert failed["a1-settled-zone-census"] == "settled point undefined at stage 10"

    def test_shortened_section_horizon_fails_its_timeline(self):
        # attempt 2 claims horizon 95 (the fresh run's is 190) and keeps its
        # records up to stage 95 only; the scripted events past stage 95
        # stay with the recorded attempt, so the trace gets a report
        def shorten(section):
            begin = section[0].split()[:4] + ["95"]
            kept = [l for l in section[1:-1] if int(l.split()[1]) <= 95]
            return [" ".join(begin), *kept, section[-1]]

        report = verify_trace(parse_trace(edit_section(2, shorten)))
        failed = {c.name: c.detail for c in report.failures()}
        want = "recorded horizon 95, fresh run horizon 190"
        assert failed["a2-timeline-agrees"] == want, report.render()

    @staticmethod
    def with_record(new, old_prefix="ev 5 boundary "):
        """The chain trace with its first line starting with old_prefix
        replaced by new. Attempt 1 has horizon 200."""
        lines = list(CHAIN_LINES)
        lines[next(i for i, l in enumerate(lines) if l.startswith(old_prefix))] = new
        return "\n".join(lines) + "\n"

    def test_huge_kept_index_exits_two_at_once(self, tmp_path, capsys):
        # a kept index sizes a list per boundary entry, so the decoder bounds
        # it before any attempt is rebuilt
        path = tmp_path / "huge.trc"
        path.write_text(self.with_record("ev 5 boundary 1000000000"))
        start = time.perf_counter()
        argv = ["verify", "--trace", str(path), "--report-out", str(tmp_path / "r")]
        code = main(argv)
        elapsed = time.perf_counter() - start
        assert code == 2
        assert elapsed < 0.1, elapsed
        assert "record ev 5 boundary 1000000000:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "new, old_prefix, why",
        [
            ("ev 5 boundary -2", "ev 5 boundary ", "kept index outside -1..199"),
            ("ev 5 boundary 200", "ev 5 boundary ", "kept index outside -1..199"),
            ("ev 0 boundary 0", "ev 5 boundary ", "stage outside 1..200"),
            ("ev 201 boundary 0", "ev 5 boundary ", "stage outside 1..200"),
            ("ev 0 xin 3", "ev 4 xin ", "stage outside 1..200"),
            ("attempt 2 begin -1000000000 190", "attempt 2 begin ", "base below -1"),
        ],
    )
    def test_out_of_bounds_record_is_named(self, new, old_prefix, why):
        parsed = parse_trace(self.with_record(new, old_prefix))
        with pytest.raises(UsageError) as err:
            verify_trace(parsed)
        assert str(err.value) == f"record {new}: {why}"

    @pytest.mark.parametrize(
        "op, why",
        [("duplicate", "number already in X"), ("stray", "number outside X")],
    )
    def test_x_record_against_x_exits_two(self, op, why, tmp_path, capsys):
        # "ev 2 xin 1" is the first X change of 1; a copy of it, or an xout
        # in its place, contradicts X before the record
        lines = list(CHAIN_LINES)
        i = lines.index("ev 2 xin 1")
        if op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = "ev 2 xout 1"
        with pytest.raises(UsageError) as err:
            verify_trace(parse_trace("\n".join(lines) + "\n"))
        assert str(err.value) == f"record {lines[i]}: {why}"
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--trace", str(path)]) == 2
        assert f"record {lines[i]}: {why}" in capsys.readouterr().err

    def test_kept_index_within_the_horizon_gets_a_report(self):
        # past the stage but within the section: a boundary-shape failure
        report = verify_trace(parse_trace(self.with_record("ev 5 boundary 199")))
        failed = {c.name: c.detail for c in report.failures()}
        want = "stage 5: kept 199 exceeds previous length"
        assert failed["a1-boundary-shape"] == want

    @settings(max_examples=50, deadline=None)
    @given(
        op=st.sampled_from(["drop", "duplicate", "swap"]),
        i=st.integers(FIRST_BODY, LAST_BODY),
    )
    def test_edited_body_line_gives_a_report_or_usage_error(self, op, i):
        lines = list(CHAIN_LINES)
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            j = i + 1 if i < LAST_BODY else i - 1
            lines[i], lines[j] = lines[j], lines[i]
        try:
            verify_trace(parse_trace("\n".join(lines) + "\n"))
        except UsageError:
            pass


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "sepsim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )


class TestCli:
    @pytest.fixture()
    def scenario_file(self, tmp_path):
        sc = nosupermax_scenario(3, 100)
        path = tmp_path / "scn.txt"
        path.write_text(sc.canonical())
        return path

    def test_run_and_verify_exit_zero(self, tmp_path, scenario_file):
        trace = tmp_path / "out.trc"
        res = run_cli(
            ["run", "--scenario", str(scenario_file), "--trace-out", str(trace)],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        res = run_cli(["verify", "--trace", str(trace)], tmp_path)
        assert res.returncode == 0, res.stderr + res.stdout
        assert "result pass" in res.stdout

    def test_replay_identical(self, tmp_path, scenario_file):
        trace = tmp_path / "out.trc"
        res = run_cli(
            ["run", "--scenario", str(scenario_file), "--trace-out", str(trace)],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        res = run_cli(
            ["replay", "--scenario", str(scenario_file), "--trace", str(trace)],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert "identical" in res.stdout

    def test_verify_scenario_direct(self, tmp_path, scenario_file):
        res = run_cli(["verify", "--scenario", str(scenario_file)], tmp_path)
        assert res.returncode == 0, res.stderr

    def test_usage_error_exit_two(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text(
            "sepsim-scenario 1\nconstruction twodegrees\nhorizon 10\n"
            "set C 1 99\nend\n"
        )
        res = run_cli(["run", "--scenario", str(bad)], tmp_path)
        assert res.returncode == 2, res.stderr
        res = run_cli(["run", "--scenario", str(tmp_path / "missing.txt")], tmp_path)
        assert res.returncode == 2, res.stderr

    def test_horizon_ceiling_exit_two(self, tmp_path, scenario_file):
        res = run_cli(
            ["run", "--scenario", str(scenario_file), "--horizon", "10001"], tmp_path
        )
        assert res.returncode == 2, res.stderr
        assert "horizon 10001 exceeds 10000" in res.stderr

    def test_hypothesis_violation_exit_three(self, tmp_path):
        sc = Scenario(
            construction="nosupermax",
            horizon=20,
            sets={"A": [(3, 2)], "B": [(3, 5)]},
        )
        p = tmp_path / "hyp.txt"
        p.write_text(sc.canonical())
        res = run_cli(["run", "--scenario", str(p)], tmp_path)
        assert res.returncode == 3, res.stderr

    def test_trace_hypothesis_violation_exit_three(self, tmp_path):
        # the embedded scenario passes the schema and its digest matches, but
        # the mutated gamma rule breaks the use-bound hypotheses
        good = load_scenario((SAMPLES / "upclosure-leastpoint.scn").read_text())
        text = run_scenario(good).render()
        bad = parse_scenario(
            good.canonical().replace(
                "rule gamma 12 1 15 33 3 4 1 8 1 14 1",
                "rule gamma 12 1 15 33 3 4 1 0 1 14 1",
            )
        )
        assert bad.digest() != good.digest()
        text = text.replace(good.canonical(), bad.canonical())
        trace = tmp_path / "bad.trc"
        trace.write_text(text.replace(good.digest(), bad.digest()))
        res = run_cli(["verify", "--trace", str(trace)], tmp_path)
        assert res.returncode == 3, res.stderr
        assert "hypothesis violation" in res.stderr

    def test_violation_exit_one(self, tmp_path, scenario_file):
        trace = tmp_path / "out.trc"
        res = run_cli(
            ["run", "--scenario", str(scenario_file), "--trace-out", str(trace)],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        text = trace.read_text()
        lines = text.splitlines()
        # drop one X-change record to corrupt the trace body
        idx = next(
            i for i, l in enumerate(lines) if l.startswith("ev") and " xin " in l
        )
        lines.pop(idx)
        trace.write_text("\n".join(lines) + "\n")
        res = run_cli(["verify", "--trace", str(trace)], tmp_path)
        assert res.returncode == 1, res.stderr
        assert "result fail" in res.stdout


# Runs one CLI command and prints the modules it loaded beyond the
# interpreter's own start-up.
LOADED_MODULES = """
import sys
before = set(sys.modules)
from sepsim.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


class TestColdStart:
    @pytest.mark.parametrize(
        "stem",
        [
            "anticomplete-quiet",
            "nosupermax-sparse",
            "twodegrees-mixed",
            "upclosure-leastpoint",
        ],
    )
    def test_a_process_loads_one_construction(self, stem, tmp_path):
        construction = stem.split("-")[0]
        scenario = SAMPLES / f"{stem}.scn"
        trace, report = tmp_path / "out.trc", tmp_path / "out.txt"
        commands = [
            ["run", "--scenario", str(scenario), "--trace-out", str(trace)],
            ["verify", "--trace", str(trace), "--report-out", str(report)],
        ]
        for args in commands:
            res = subprocess.run(
                [sys.executable, "-c", LOADED_MODULES, *args],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=cli_env(),
            )
            assert res.returncode == 0, res.stderr
            loaded = set(res.stdout.split())
            assert f"sepsim.{construction}" in loaded, args[0]
            others = {f"sepsim.{c}" for c in CONSTRUCTIONS} - {f"sepsim.{construction}"}
            assert not loaded & others, (args[0], loaded & others)
            assert "dataclasses" not in loaded, args[0]
        assert "result pass" in report.read_text()


class TestLint:
    def test_every_import_is_used(self):
        """Stdlib lint: each name a package module imports is read somewhere
        in that module (`from __future__` imports are exempt)."""
        unused = []
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [
                f"{path.name}:{node.lineno} {name}"
                for name, node in imported.items()
                if name not in used
            ]
        assert not unused, unused


def load_tracing():
    path = PACKAGE.parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


class TestBenchmarkTracing:
    def test_tracer_binds_every_name_and_unbinds(self):
        """The benchmark's tracer wraps package functions by name; a rename
        that drops one fails here, not in a traced benchmark run."""
        tracing = load_tracing()

        def target(module, attr):
            owner = importlib.import_module(module)
            *cls, name = attr.split(".")
            return vars(getattr(owner, cls[0]) if cls else owner)[name]

        originals = {(m, attr): target(m, attr) for m, attr, _, _ in tracing.TARGETS}
        tracer = tracing.Tracer()
        try:
            tracer.bind()
            assert set(tracer.rebound) == {attr for _, attr in originals}
            for key, orig in originals.items():
                assert target(*key) is not orig, key
        finally:
            tracer.unbind()
        for key, orig in originals.items():
            assert target(*key) is orig, key

    def test_tracer_sees_every_construction_layer(self):
        """Constructions are imported when a runner or verifier is called, so
        the calls reach the names the tracer rebound; a dispatch table that
        captured function objects at import would leave these counts at 0."""
        tracer = load_tracing().Tracer()
        scenarios = [
            anticomplete_scenario(1, 60),
            nosupermax_scenario(1, 100),
            twodegrees_scenario(0, 60),
            upclosure_scenario(3, 2),
        ]
        try:
            tracer.bind()
            for sc in scenarios:
                sc = sepsim.scenario.load_scenario(sc.canonical())
                text = sepsim.trace.run_scenario(sc).render()
                assert sepsim.verify.verify_trace(sepsim.trace.parse_trace(text)).passed
        finally:
            tracer.unbind()
        calls = tracer.calls
        for c in ("anticomplete", "nosupermax", "twodegrees"):
            assert calls[f"{c}.run"] >= 2 and calls[f"{c}.verify"] == 1, c
        # the pipeline runs once for the trace and once for the verifier's
        # fresh run
        assert calls["upclosure.pipeline"] == 2
        assert {f"verify.{c}" for c in CONSTRUCTIONS} <= set(calls)
