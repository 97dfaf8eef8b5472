"""Scenario loading, trace round trips, verification dispatch, CLI, lint."""

import ast
import hashlib
import importlib.util
import json
import random
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sepsim
import sepsim.scenario
import sepsim.trace
import sepsim.verify
from cli_env import cli_env
from naive_parse import naive_canonical, naive_parse_scenario
from sepsim.cli import main
from sepsim.corpus import (
    anticomplete_corpus,
    anticomplete_scenario,
    chain_certificates,
    nosupermax_scenario,
    twodegrees_corpus,
    twodegrees_scenario,
    upclosure_corpus,
    upclosure_scenario,
)
from sepsim.errors import HardFault, HypothesisViolation, SepsimError, UsageError
from sepsim.functionals import OracleProgram
from sepsim.report import VerificationReport, first_divergence
from sepsim.scenario import (
    CONSTRUCTIONS,
    Scenario,
    by_index,
    construction_module,
    load_scenario,
    load_scenario_file,
    parse_scenario,
)
from sepsim.trace import Trace, parse_trace, run_scenario
from sepsim.verify import split_body, verify_trace

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


def digest(sc):
    """The `scenariohash` a trace of `sc` carries."""
    return hashlib.sha256(sc.canonical().encode()).hexdigest()


def minimal(construction, *records, horizon=10):
    """A scenario text of that construction and horizon with these records."""
    head = f"sepsim-scenario 1\nconstruction {construction}\nhorizon {horizon}\n"
    return head + "".join(record + "\n" for record in records) + "end\n"


# (scenario text, the start of the error it exits 2 with)
REFUSALS = [
    (minimal("nosupermax") + "set A 1 1\n", "line 5: content after end record"),
    (minimal("nosupermax", "cert 1 2 3 odd5 4"), "line 4: bad parity word odd5"),
    ("sepsim-scenario 1\nhorizon 10\nend\n", "missing construction record"),
    (minimal("nosupermax", "case 2"), "only upclosure scenarios declare a case"),
    (
        minimal("nosupermax", "bound f 0 1"),
        "only upclosure scenarios carry a bound table",
    ),
    (
        minimal("anticomplete", "cert 1 2 3 odd 4"),
        "only nosupermax scenarios carry certificates",
    ),
    (minimal("nosupermax", *["cert 1 2 3 odd 4"] * 3), "at most two certificates"),
    (minimal("nosupermax", "cert 2 2 3 odd 4"), "certificate 1 must target attempt 1"),
    (
        minimal("upclosure", "case 2", "bound f 0 1", "bound f 1 2", "bound f 2 3"),
        "bound table covers [0, 3), horizon 10",
    ),
    (
        minimal("upclosure", "case 2", "bound f 0 1", "bound f 1 4099", horizon=2),
        "bound table values exceed the horizon by 4096",
    ),
    (minimal("twodegrees", "set C 33 1"), "set C column 33 exceeds 32"),
    # an index has one name: no leading zero, ASCII digits only
    (
        minimal("anticomplete", "rule phi05 0 1 0 0 0", "rule phi5 0 0 0 0 0"),
        "program phi05 not allowed for anticomplete",
    ),
    (
        minimal("twodegrees", "rule phi\u0665 0 1 0 0 0"),
        "program phi\u0665 not allowed for twodegrees",
    ),
    (minimal("twodegrees", "set W05 1 1"), "set W05 not allowed for twodegrees"),
]


class TestSchemaRefusals:
    """Each schema refusal, on one minimal scenario, exits 2 naming itself."""

    @pytest.mark.parametrize("text, error", REFUSALS, ids=[e for _, e in REFUSALS])
    def test_refusal_exits_two(self, text, error, tmp_path, capsys):
        path = tmp_path / "refused.scn"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    def test_each_index_has_one_name(self):
        names = ["phi0", "phi10", "phi05", "phi\u0665", "phi", "phi-1", "W3", "xphi2"]
        assert by_index(names, "phi") == {0: "phi0", 10: "phi10"}
        assert by_index(names, "W") == {3: "W3"}


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
            ("set K 10 2 7 8 9 10  11", 4),
        ],
    )
    def test_record_arity(self, line, want):
        # a trailing token used to vanish: `set K 10 2 7` loaded as `set K 10 2`
        text = MINIMAL_TWODEGREES.replace("end\n", line + "\nend\n")
        with pytest.raises(UsageError) as err:
            parse_scenario(text)
        toks = line.split()
        why = f"{len(toks)} tokens, expected {want}"
        assert str(err.value) == f"line 4: record {' '.join(toks)}: {why}"
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
        assert load_scenario(at_bound).sets["K"] == ((4106, 3),)
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


def respellings(text):
    """The text with its first set or rule line respelled in each way that
    split() and int() still read (its first integer with a sign, a leading
    zero, an underscore or non-ASCII digits; a tab, a doubled space or a
    comment), with CR line ends, with a blank line, and with two lines out
    of canonical order."""
    lines = text.splitlines()
    i = next(i for i, l in enumerate(lines) if l.startswith(("set ", "rule ")))
    j = next(j for j in range(i, len(lines) - 1) if lines[j] != lines[j + 1])
    kind, name, num, *rest = lines[i].split(" ")
    arabic = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
    tokens = [f"+{num}", f"0{num}", f"{num[:-1]}_{num[-1]}" if num[1:] else f"0_{num}"]
    tokens += [num.translate(arabic)] + (["-0"] if num == "0" else [])
    edited = [" ".join([kind, name, tok, *rest]) for tok in tokens]
    edited += [lines[i].replace(" ", "\t", 1), lines[i].replace(" ", "  ", 1)]
    edited += [lines[i] + " # a comment", lines[i] + "\n"]
    texts = ["\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n" for line in edited]
    texts.append("\r\n".join(lines) + "\r\n")
    for order in ([j + 1, j], [2, 1]):  # two records, construction and horizon
        k = min(order)
        texts.append("\n".join(lines[:k] + [lines[n] for n in order] + lines[k + 2 :]) + "\n")
    return texts


FUZZ_TEXTS += [
    text
    for sc in (anticomplete_scenario(0, 60), nosupermax_scenario(1, 60))
    for text in respellings(sc.canonical())
]
FUZZ_WORDS = [
    "end", "set", "rule", "bound", "cert", "case", "horizon", "construction",
    "A", "B", "C", "K", "W0", "f", "phi0", "phi7", "gamma", "odd", "even",
    "#", "x", "-", "1.5", "0x10",
]


def mutate_tokens(text, op, token, data):
    """One token of one line of the text replaced, deleted or duplicated;
    any other op leaves the tokens as they are. Blank lines are passed over."""
    lines = text.splitlines()
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.split()]))
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
        got = parse_outcome(parse_scenario, text)
        assert got == parse_outcome(naive_parse_scenario, text)
        if got[0] == "ok":
            assert_kept_exactly_when_canonical(text)

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



def assert_kept_exactly_when_canonical(text):
    """parse_scenario keeps the text, for canonical() to return, exactly
    when the naive rendering of the naive parse gives the text back; only
    then is its noncanonical_line None."""
    sc = parse_scenario(text)
    canonical = naive_canonical(naive_parse_scenario(text)) == text
    assert (sc._text is text) == canonical == (sc.noncanonical_line is None)
    assert sc.canonical() == naive_canonical(sc)


def corpus_scenarios():
    """Corpus scenarios of every construction, nosupermax with chains."""
    scenarios = [sc for _, sc in anticomplete_corpus(20, 1000)]
    scenarios += [sc for _, sc in twodegrees_corpus(20, 1000)]
    scenarios += [sc for _, sc in upclosure_corpus(50)]
    for seed in range(8):
        sc = nosupermax_scenario(seed, 200)
        sc.certs = chain_certificates(sc, want=2)
        scenarios.append(sc)
    return scenarios


class TestCanonicalText:
    """`Scenario.canonical` renders each distinct guard once; its text must
    equal the rule-by-rule rendering of `naive_canonical`."""

    def test_corpora(self):
        for sc in corpus_scenarios():
            text = sc.canonical()
            assert text == naive_canonical(sc)
            assert_kept_exactly_when_canonical(text)

    def test_samples_and_respellings(self):
        texts = [path.read_text() for path in sorted(SAMPLES.parent.rglob("*.scn"))]
        for text in texts + FUZZ_TEXTS:
            assert_kept_exactly_when_canonical(text)
        assert sum(parse_scenario(t).noncanonical_line is None for t in FUZZ_TEXTS) == 6

    def test_duplicate_rules_and_shared_guards(self):
        guard = "2 3 1 5 0"
        lines = [
            f"rule phi0 0 1 6 0 {guard}",
            f"rule phi0 0 1 6 0 {guard}",  # the same rule twice
            f"rule phi0 0 1 6 4 {guard}",
            f"rule phi0 3 0 6 0 {guard}",  # the guard on another input
            f"rule phi1 0 0 9 2 {guard}",  # and in another program
            "rule phi1 1 0 9 2 2 5 0 3 1",  # the same pairs, unsorted
            "rule phi1 1 0 9 2 0",
        ]
        text = MINIMAL_ANTICOMPLETE.replace("end\n", "\n".join(lines) + "\nend\n")
        sc = parse_scenario(text)
        assert sc.canonical() == naive_canonical(sc)
        rules = sc.canonical().splitlines()[3:-1]
        assert rules == [
            "rule phi0 0 1 6 0 2 3 1 5 0",
            "rule phi0 0 1 6 0 2 3 1 5 0",
            "rule phi0 0 1 6 4 2 3 1 5 0",
            "rule phi0 3 0 6 0 2 3 1 5 0",
            "rule phi1 0 0 9 2 2 3 1 5 0",
            "rule phi1 1 0 9 2 0",
            "rule phi1 1 0 9 2 2 3 1 5 0",
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.sampled_from(FUZZ_TEXTS),
        guard_op=st.sampled_from(["none", "reverse", "repeat", "clash"]),
        op=st.sampled_from(["replace", "delete", "duplicate", "none"]),
        token=FUZZ_TOKENS,
        data=st.data(),
    )
    def test_mutated_scenarios(self, text, guard_op, op, token, data):
        text = mutate_tokens(edit_guard(text, guard_op, data), op, token, data)
        try:
            sc = parse_scenario(text)
        except UsageError:
            return
        assert sc.canonical() == naive_canonical(sc)

    @pytest.mark.parametrize(
        "stem, name",
        [("anticomplete-readers", "phi0"), ("upclosure-leastpoint", "gamma")],
    )
    def test_huge_use_exits_two_at_once(self, stem, name, tmp_path, capsys, monkeypatch):
        # the use bound is checked before any guard becomes a mask: no
        # program is built from the rule
        text = (SAMPLES / f"{stem}.scn").read_text()
        line = f"rule {name} 0 0 99999999999 0 1 99999999998 1"
        path = tmp_path / "huge.scn"
        path.write_text(text.replace("\nend\n", f"\n{line}\nend\n"))
        argv = ["run", "--scenario", str(path), "--trace-out", str(tmp_path / "t")]
        assert main(argv) == 2  # imports the construction before the timed run
        built = []
        init = OracleProgram.__init__

        def counted(self, rules=(), rows=None):
            init(self, rules, rows)
            built.append(self)

        monkeypatch.setattr(OracleProgram, "__init__", counted)
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
        assert code == 2
        assert not any(r.use == 99999999999 for prog in built for r in prog.rules)
        assert elapsed < 0.1, elapsed
        want = f"program {name}: rule use 99999999999 exceeds the horizon by more"
        assert f"{want} than 4096" in capsys.readouterr().err


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

        def counted(self, rules=(), rows=None):
            init(self, rules, rows)
            built.append(tuple(self.rules))

        monkeypatch.setattr(OracleProgram, "__init__", counted)
        text = upclosure_scenario(3, 2).canonical()
        sc = load_scenario(text)
        report = verify_trace(parse_trace(run_scenario(sc).render()))
        assert report.passed
        # once for the loaded Scenario, once for the trace's
        assert sorted(sc.rules) == ["delta", "gamma"]
        assert Counter(built) == {tuple(rules): 2 for rules in sc.rules.values()}


def mutations():
    """(builder, change): each change of a field as a caller writes it, for a
    scenario the builder makes."""

    def sets(sc):
        sc.sets = {name: list(events[:-1]) for name, events in sc.sets.items()}

    def rules(sc):
        sc.rules = {name: list(rules[1:]) for name, rules in sc.rules.items()}

    def bound_table(sc):
        table = sorted(sc.bound_table)
        sc.bound_table = table[:-1] + [(table[-1][0], table[-1][1] + 1)]

    def certs(sc):
        sc.certs = chain_certificates(sc, want=2)

    return {
        "horizon": (partial(anticomplete_scenario, 1, 60), None),
        "sets": (partial(nosupermax_scenario, 2, 120), sets),
        "rules": (partial(twodegrees_scenario, 1, 120), rules),
        "bound_table": (partial(upclosure_scenario, 3, 2), bound_table),
        "certs": (partial(nosupermax_scenario, 1, 200), certs),
    }


class TestKeptText:
    """A parsed scenario keeps its canonical text until a field changes; a
    changed one writes the trace that a freshly rendered copy writes."""

    @pytest.mark.parametrize("field", list(mutations()))
    def test_a_changed_field_drops_the_kept_text(self, field):
        build, change = mutations()[field]
        built = build()
        text = built.canonical()
        if change is None:  # the horizon override
            sc = load_scenario(text, horizon_override=built.horizon + 20)
            built.horizon += 20
        else:
            sc = load_scenario(text)
            assert sc.canonical() is text
            change(sc)
            change(built)
        assert sc._text is None
        trace = run_scenario(sc).render()
        assert trace == run_scenario(built).render()
        assert trace != run_scenario(load_scenario(text)).render()

    def test_parsed_fields_are_read_only(self):
        sc = parse_scenario(upclosure_scenario(0, 2).canonical())
        with pytest.raises(TypeError):
            sc.sets["A"] = []
        with pytest.raises(AttributeError):
            sc.sets["A"].append((1, 1))
        with pytest.raises(TypeError):
            sc.rules["gamma"] = []
        with pytest.raises(AttributeError):
            sc.bound_table.append((0, 1))
        with pytest.raises(AttributeError):
            sc.certs.append(None)
        assert sc.canonical() is sc._text

    def test_verdicts_render_no_scenario(self, monkeypatch):
        texts = [sc.canonical() for _, sc in anticomplete_corpus(20, 1000)]
        renders = []
        render = Scenario._render

        def counted(self):
            renders.append(self)
            return render(self)

        monkeypatch.setattr(Scenario, "_render", counted)
        for text in texts:
            trace = run_scenario(load_scenario(text)).render()
            assert verify_trace(parse_trace(trace)).passed
        assert renders == []


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
        assert parsed.scenario_hash == digest(sc)
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

    @pytest.mark.parametrize(
        "path", sorted(FAULTS.glob("*.trc")), ids=lambda path: path.stem
    )
    def test_failing_checks_name_a_counterexample(self, path):
        # a failing check's detail holds a number: a position, a stage, a
        # record, an element, an index or a certificate's fields
        failures = verify_trace(parse_trace(path.read_text())).failures()
        assert failures
        assert [c.line() for c in failures if not re.search(r"\d", c.detail)] == []

    def test_trailing_token_in_embedded_scenario_rejected(self):
        # the edited scenario renders to the recorded canonical text, so the
        # digest alone would not see it
        text = run_scenario(nosupermax_scenario(0, 60)).render()
        line = next(l for l in text.splitlines() if l.startswith("set A "))
        with pytest.raises(UsageError, match="5 tokens, expected 4$"):
            parse_trace(text.replace(line, line + " 7", 1))

    @pytest.mark.parametrize("stem", ["nosupermax-chain", "twodegrees-mixed"])
    def test_unknown_pairing_scheme_rejected(self, stem, tmp_path):
        sc = load_scenario((SAMPLES / f"{stem}.scn").read_text())
        text = run_scenario(sc).render()
        assert "\npairing greedy-cantor-cube\n" in text
        path = tmp_path / "edited.trc"
        path.write_text(text.replace("greedy-cantor-cube", "bogus-scheme", 1))
        want = "header reads 'pairing bogus-scheme', expected 'pairing greedy-cantor"
        with pytest.raises(UsageError, match=want) as err:
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
        with pytest.raises(UsageError, match="header reads 'scenariohash ") as err:
            parse_trace("\n".join(lines) + "\n")
        assert err.value.location == "line 5"


SAMPLE_TRACES = {
    path.stem: run_scenario(load_scenario_file(path)).render()
    for path in sorted(SAMPLES.glob("*.scn"))
}


def edit_header_token(text, i, j, op, token):
    """The trace with token j of line i replaced by `token`, deleted or
    duplicated; tokens are split on single spaces."""
    lines = text.split("\n")
    toks = lines[i].split(" ")
    j %= len(toks)
    if op == "replace":
        toks[j] = token
    elif op == "delete":
        del toks[j]
    else:
        toks.insert(j, toks[j])
    lines[i] = " ".join(toks)
    return "\n".join(lines)


class TestTraceHeader:
    """The lines from `sepsim-trace 1` to `scenario-begin` are exactly the
    ones `Trace.render` writes for the embedded scenario."""

    @settings(max_examples=150, deadline=None)
    @given(
        stem=st.sampled_from(sorted(SAMPLE_TRACES)),
        op=st.sampled_from(["replace", "delete", "duplicate"]),
        data=st.data(),
    )
    def test_header_token_edit_is_refused(self, stem, op, data):
        text = SAMPLE_TRACES[stem]
        lines = text.split("\n")
        i = data.draw(st.integers(0, lines.index("scenario-begin")))
        j = data.draw(st.integers(0, 40))
        header_tokens = " ".join(lines[: i + 1]).split(" ")
        token = data.draw(
            st.sampled_from(header_tokens) | st.text("abc019-:", min_size=0, max_size=4)
        )
        edited = edit_header_token(text, i, j, op, token)
        if edited == text:
            return
        with pytest.raises(UsageError):
            parse_trace(edited)

    @pytest.mark.parametrize(
        "edit, lineno",
        [
            (lambda ls: ls[:3] + ls[4:], 4),  # no pairing line
            (lambda ls: ls[:2] + ls[3:], 3),  # no toolversion line
            (lambda ls: ls[:2] + ["toolversion 9.9"] + ls[3:], 3),
            (lambda ls: ls[:7] + [ls[7] + " indeed"] + ls[8:], 8),  # edited note
            (lambda ls: ls[:6] + ls[8:], 7),  # no notes
            (lambda ls: ls[:5] + [ls[4]] + ls[5:], 6),  # repeated scenariohash
            (lambda ls: ls[:4] + [ls[5], ls[4]] + ls[6:], 5),  # swapped lines
        ],
    )
    def test_edited_header_line_is_named(self, edit, lineno, tmp_path):
        lines = SAMPLE_TRACES["twodegrees-mixed"].splitlines()
        assert lines[8] == "scenario-begin"
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(UsageError, match="header reads") as err:
            parse_trace(path.read_text())
        assert err.value.location == f"line {lineno}"
        assert main(["verify", "--trace", str(path)]) == 2

    @pytest.mark.parametrize("line", ["note extra", "toolversion 0.1.0"])
    def test_header_line_in_the_body_is_refused(self, line):
        lines = SAMPLE_TRACES["nosupermax-sparse"].splitlines()
        lines.insert(len(lines) - 1, line)
        kind = line.split()[0]
        with pytest.raises(UsageError, match=f"unknown record {kind} in trace body"):
            verify_trace(parse_trace("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("label", ["anticomplete", "nosupermax", "bogus"])
    def test_relabelled_construction_is_refused(self, label):
        text = SAMPLE_TRACES["twodegrees-mixed"]
        edited = text.replace("construction twodegrees", f"construction {label}", 1)
        want = f"header reads 'construction {label}', expected 'construction twodeg"
        with pytest.raises(UsageError, match=want) as err:
            parse_trace(edited)
        assert err.value.location == "line 2"


class TestTraceFrame:
    """The embedded scenario is hashed as read, and the last line is `end`."""

    @pytest.mark.parametrize(
        "lineno, edit, want",
        [
            (12, lambda line: "horizon x", "malformed horizon record"),
            (20, lambda line: line + " 7", "guard pair count mismatch"),
            (10, lambda line: "sepsim-scenario 2", "missing or unsupported scenario"),
        ],
        ids=["horizon", "rule", "header"],
    )
    def test_error_in_the_embedded_scenario_names_the_trace_line(
        self, lineno, edit, want, tmp_path, capsys
    ):
        lines = SAMPLE_TRACES["anticomplete-readers"].splitlines()
        assert lines.index("scenario-begin") == 8  # its line 1 is trace line 10
        lines[lineno - 1] = edit(lines[lineno - 1])
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--trace", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {lineno}: {want}")

    @pytest.mark.parametrize("token", ["end", "0", "99999999999"])
    @pytest.mark.parametrize(
        "stem",
        [
            "anticomplete-quiet",
            "nosupermax-sparse",
            "twodegrees-mixed",
            "upclosure-leastpoint",
        ],
    )
    def test_end_with_a_token_exits_two(self, stem, token, tmp_path):
        lines = SAMPLE_TRACES[stem].splitlines()
        assert lines[-1] == "end"
        lines[-1] = f"end {token}"
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(lines) + "\n")
        want = f"last line reads 'end {token}', expected 'end'"
        with pytest.raises(UsageError, match=want) as err:
            parse_trace(path.read_text())
        assert err.value.location == f"line {len(lines)}"
        assert main(["verify", "--trace", str(path)]) == 2

    @pytest.mark.parametrize(
        "stem, old, new",
        [
            ("anticomplete-readers", "rule phi0 5 0 0 0 0", "rule phi0 +5 0 0 0 0"),
            ("twodegrees-blocking", "rule phi0 5 1 4", "rule phi0 +5 1 4"),
            ("upclosure-leastpoint", "end", "# a comment\nend"),
            ("nosupermax-sparse", "horizon 300", "horizon 300 # the horizon"),
        ],
        ids=["anticomplete-plus", "twodegrees-plus", "comment-line", "comment"],
    )
    def test_respelled_embedded_scenario_exits_two(self, stem, old, new, tmp_path):
        # the edit leaves the canonical text, and so its digest, as it was
        text = SAMPLE_TRACES[stem]
        lines = text.splitlines()
        begin, end = lines.index("scenario-begin"), lines.index("scenario-end")
        i = next(i for i in range(begin, end) if lines[i].startswith(old))
        lines[i] = lines[i].replace(old, new)
        embedded = parse_scenario("\n".join(lines[begin + 1 : end]) + "\n")
        assert embedded.canonical() == parse_trace(text).scenario.canonical()
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(UsageError, match="header reads 'scenariohash ") as err:
            parse_trace(path.read_text())
        assert err.value.location == "line 5"
        assert main(["verify", "--trace", str(path)]) == 2

    @pytest.mark.parametrize(
        "stem, old, new, moved",
        [
            ("anticomplete-readers", "rule phi0 5 0 0 0 0", "rule phi0 +5 0 0 0 0", 0),
            ("twodegrees-blocking", "rule phi0 5 1 4", "rule phi0 05 1 4", 0),
            ("upclosure-leastpoint", "end", "# a comment\nend", 0),
            ("nosupermax-sparse", "horizon 300", "horizon  300", 0),
            ("upclosure-iterated", "case 1 1", "case 1 1\ncase 1 1", 1),
        ],
        ids=["plus", "leading-zero", "comment-line", "doubled-space", "repeated-case"],
    )
    def test_noncanonical_embedded_scenario_with_its_digest_exits_two(
        self, stem, old, new, moved, tmp_path
    ):
        # the header carries the digest of the edited text, so only the
        # parse's own canonical check can refuse it; it names the first line
        # that departs from canonical form
        lines = SAMPLE_TRACES[stem].splitlines()
        begin, end = lines.index("scenario-begin"), lines.index("scenario-end")
        i = next(i for i in range(begin, end) if lines[i].startswith(old))
        lines[i : i + 1] = lines[i].replace(old, new).split("\n")
        end += new.count("\n")
        embedded = "\n".join(lines[begin + 1 : end]) + "\n"
        lines[4] = f"scenariohash {hashlib.sha256(embedded.encode()).hexdigest()}"
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(lines) + "\n")
        first = i + 1 + moved  # moved: lines from the edit to the departure
        with pytest.raises(UsageError) as err:
            parse_trace(path.read_text())
        assert err.value.location == f"line {first}"
        assert str(err.value) == (
            f"line {first}: embedded scenario is not canonical: {lines[first - 1]!r}"
        )
        assert main(["verify", "--trace", str(path)]) == 2

    def test_records_out_of_canonical_order_exit_two(self, tmp_path):
        lines = SAMPLE_TRACES["anticomplete-readers"].splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("rule "))
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        begin, end = lines.index("scenario-begin"), lines.index("scenario-end")
        embedded = "\n".join(lines[begin + 1 : end]) + "\n"
        lines[4] = f"scenariohash {hashlib.sha256(embedded.encode()).hexdigest()}"
        with pytest.raises(UsageError) as err:
            parse_trace("\n".join(lines) + "\n")
        assert err.value.location == f"line {i + 2}"  # the record that sorts first


def final_line_edits(body):
    """Every body with one `final` line dropped, duplicated in place, or moved
    to another position."""
    for i, line in enumerate(body):
        if line.split()[0] != "final":
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
        finals = sum(line.split()[0] == "final" for line in original)
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
            (i, parts) for i, parts in enumerate(map(str.split, parsed.body))
            if parts[0] == "final" and len(parts) > 2
        )
        element = parts[2].split(":")[0]
        for stamp in (0, sc.horizon + 1):
            edited = " ".join([*parts[:2], f"{element}:{stamp}", *parts[3:]])
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
            (("block", "block 0 0"), "record block 0 0: 3 tokens, expected 5"),
            (("block", "block 0 0 1 0 5"), "6 tokens, expected 5"),
            (("block", "block 0 x 1 0"), "record block 0 x 1 0: invalid literal"),
            (("recover", "recover 1 2"), "record recover 1 2: 3 tokens, expected 5"),
            (("caseok", "caseok yes"), "record caseok yes: expected true or false"),
            (("caseok", "caseok"), "record caseok: 1 tokens, expected 2"),
            (("z", "z 0120"), "record z 0120: bits must be a 0/1 string"),
            (("mseq-missing", "mseq-missing 3 4"), "3 tokens, expected 2"),
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

    @pytest.mark.parametrize(
        "replacement, detail",
        [
            ("block 3 0 99999999999999999999999999 0", "stage outside 0..100"),
            ("block 3 0 101 0", "stage outside 0..100"),
            ("block 3 0 -1 0", "stage outside 0..100"),
            ("block 3 2 97 0", "block bits must be 0 or 1"),
            ("block 3 0 97 -1", "block bits must be 0 or 1"),
            ("block 9 0 97 0", "no mseq position 9"),
            ("block -1 0 97 0", "no mseq position -1"),
            ("recover 3 13 101 13", "stage outside 0..100"),
            ("recover 99999999999999999999 13 97 13", "no mseq position"),
        ],
    )
    def test_out_of_range_field_is_named(self, replacement, detail, tmp_path, capsys):
        # the least-point sample has nine mseq positions and horizon 100
        sc = load_scenario((SAMPLES / "upclosure-leastpoint.scn").read_text())
        lines = run_scenario(sc).render().splitlines()
        kind = replacement.split()[0]
        i = next(
            i for i, line in enumerate(lines) if line.startswith(f"{kind} 3 ")
        )
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(lines[:i] + [replacement] + lines[i + 1 :]) + "\n")
        assert main(["verify", "--trace", str(path)]) == 2
        assert f"record {replacement}: {detail}" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["caseok", "mseq", "mseq-missing", "z"])
    def test_repeated_single_record_is_named(self, kind):
        sc = load_scenario((SAMPLES / "upclosure-iterated.scn").read_text())
        parsed = parse_trace(run_scenario(sc).render())
        i = next(i for i, line in enumerate(parsed.body) if line.split()[0] == kind)
        parsed.body = parsed.body[: i + 1] + parsed.body[i:]
        line = parsed.body[i]
        with pytest.raises(UsageError) as excinfo:
            verify_trace(parsed)
        assert str(excinfo.value) == f"record {line}: a second {kind} record"

    def test_non_monotone_mseq_still_gets_a_report(self):
        sc = load_scenario((SAMPLES / "upclosure-iterated.scn").read_text())
        parsed = parse_trace(run_scenario(sc).render())
        i = next(i for i, line in enumerate(parsed.body) if line.startswith("mseq "))
        values = parsed.body[i].split()[1:]
        parsed.body[i] = " ".join(["mseq", values[0], *values])
        report = verify_trace(parsed)
        assert not report.passed
        assert any(c.name == "mseq-monotone" and not c.passed for c in report.checks)


class TestUnreadableTokenNamesRecord:
    """A token its field cannot read names its record in the event log and
    nosupermax bodies, as in upclosure's, and exits 2."""

    @pytest.mark.parametrize(
        "stem, start, at, token, reason",
        [
            ("anticomplete-readers", "ev 1 nact ", 3, "A", "invalid literal"),
            ("twodegrees-mixed", "ev 25 axiom ", 4, "x", "invalid literal"),
            ("nosupermax-chain", "ev 1 boundary ", 3, "x", "invalid literal"),
            ("nosupermax-chain", "map ", 2, "x", "invalid literal"),
            ("anticomplete-readers", "final B ", None, "x", "not enough values"),
            ("anticomplete-readers", "ev 2 ract ", 7, "x", "'a' is not in list"),
            ("anticomplete-readers", "ev 2 ract ", 8, "x", "'b' is not in list"),
        ],
        ids=["nact", "axiom", "boundary", "map", "final", "ract-a", "ract-b"],
    )
    def test_record_is_named(self, stem, start, at, token, reason, tmp_path, capsys):
        # `at` None appends the token: a final entry without its ':'
        sc = load_scenario((SAMPLES / f"{stem}.scn").read_text())
        lines = run_scenario(sc).render().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(start))
        parts = lines[i].split()
        if at is None:
            parts.append(token)
        else:
            parts[at] = token
        edited = " ".join(parts)
        path = tmp_path / "edited.trc"
        path.write_text("\n".join(lines[:i] + [edited] + lines[i + 1 :]) + "\n")
        assert main(["verify", "--trace", str(path)]) == 2
        assert f"record {edited}: {reason}" in capsys.readouterr().err


def longest_record_of_each_kind(texts, body_of, split):
    """kind -> (text, index of its longest line of that kind, the first of
    them), over the body lines of every text; the records whose first token
    is in `split` are of the kind their first and third tokens name. Rules
    are left out."""
    out = {}
    for text in texts:
        lines = text.splitlines()
        for i in body_of(lines):
            toks = lines[i].split()
            kind = toks and toks[0]
            if kind in split:
                kind = " ".join(toks[:3:2])
            if kind and kind != "rule":
                if kind not in out or len(toks) > len(out[kind][2]):
                    out[kind] = (text, i, toks)
    return {kind: (text, i) for kind, (text, i, _) in out.items()}


# the least token count of the records whose tail takes any number of
# tokens; a record of one of them with a tail cannot be one token too long,
# and mseq and map records cannot be too short either
TAIL_LEAST = {"ev ract": 9, "final": 2, "cert rejected": 4, "mseq": 1, "map": 1}


def count_edits(kind, line):
    """(edited line, expected count) for the record with one token appended
    to its fixed tokens and one dropped from them, or, with a tail, with its
    tail and one more token dropped. An end record is only appended to."""
    toks = line.split()
    if kind == "ev ract":  # the fixed tokens end before the `a` run
        a = toks.index("a")
        longer, shorter = toks[:a] + toks[a - 1 :], toks[: a - 1] + toks[a:]
        edits = [(longer, len(toks)), (shorter, len(toks))]
    elif kind in TAIL_LEAST:
        least = TAIL_LEAST[kind]
        edits = [(toks[: least - 1], f"at least {least}")] if least > 1 else []
    else:
        # attempt and cert records without their third token have no kind
        short = len(toks) == 3 and toks[0] in ("attempt", "cert")
        edits = [(toks + toks[-1:], len(toks))]
        if kind != "end":
            edits.append((toks[:-1], "at least 3" if short else len(toks)))
    return [(" ".join(edited), want) for edited, want in edits]


def arity_cases(texts, body_of, split=()):
    kinds = longest_record_of_each_kind(texts, body_of, split)
    return [
        pytest.param(text, i, edited, want, id=f"{kind}-{len(edited.split())}")
        for kind, (text, i) in kinds.items()
        for edited, want in count_edits(kind, text.splitlines()[i])
    ]


def trace_body(lines):
    return range(lines.index("scenario-end") + 1, len(lines) - 1)


CERT_TRACES = {
    path.stem: run_scenario(load_scenario_file(path)).render()
    for path in sorted(SAMPLES.parent.glob("certs/*.scn"))
}
SAMPLE_SCENARIOS = [path.read_text() for path in sorted(SAMPLES.glob("*.scn"))]


class TestRecordArity:
    """Every record kind of the sample and certificate traces and of the
    sample scenarios, a rule's aside, with one token too many or too few
    exits 2 naming the record and its count, however its format reads it."""

    @staticmethod
    def exit_and_error(text, i, edited, args, tmp_path, capsys):
        lines = text.splitlines()
        lines[i] = edited
        path = tmp_path / "edited"
        path.write_text("\n".join(lines) + "\n")
        code = main([*args, str(path)])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, i, edited, want",
        arity_cases(
            [*SAMPLE_TRACES.values(), *CERT_TRACES.values()],
            trace_body,
            split=("attempt", "cert", "ev"),
        ),
    )
    def test_trace_record(self, text, i, edited, want, tmp_path, capsys):
        args = ["verify", "--trace"]
        got = self.exit_and_error(text, i, edited, args, tmp_path, capsys)
        n = len(edited.split())
        assert got == (2, f"error: record {edited}: {n} tokens, expected {want}\n")

    @pytest.mark.parametrize(
        "text, i, edited, want",
        arity_cases(SAMPLE_SCENARIOS, lambda lines: range(1, len(lines))),
    )
    def test_scenario_record(self, text, i, edited, want, tmp_path, capsys):
        out = tmp_path / "out.trc"
        args = ["run", "--trace-out", str(out), "--scenario"]
        got = self.exit_and_error(text, i, edited, args, tmp_path, capsys)
        n = len(edited.split())
        where = f"line {i + 1}: record {edited}"
        assert got == (2, f"error: {where}: {n} tokens, expected {want}\n")
        assert not out.exists()


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
    """The run's log as the construction's fresh hook gives it, with the
    encoder and decoder of its trace body."""
    module = construction_module(sc.construction)
    decode = partial(module.decode, horizon=sc.horizon)
    return module.fresh(sc)[1], module.encode, decode


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
MAP_STAGES = next(line for line in CHAIN_LINES if line.startswith("map ")).split()[1:]
MAP_OUTSIDE = "stages not strictly rising within 1..200"
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
            (
                "attempt 2 begin 99999999999999 190",
                "attempt 2 begin ",
                "base above the scenario horizon 200",
            ),
            ("attempt 1 begin -1 200 9", "attempt 1 begin ", "6 tokens, expected 5"),
            ("attempt 1 begin -1", "attempt 1 begin ", "4 tokens, expected 5"),
            ("attempt 1 end now", "attempt 1 end", "4 tokens, expected 3"),
            ("attempt 1", "attempt 1 end", "2 tokens, expected at least 3"),
            ("attempt 1 accepted", "attempt 1 end", "third token not begin or end"),
            (
                "cert 1 73 43 why",
                "cert 1 accepted",
                "third token not accepted or rejected",
            ),
            ("cert 1 accepted extra", "cert 1 accepted", "4 tokens, expected 3"),
            ("cert 1 rejected", "cert 1 accepted", "3 tokens, expected at least 4"),
            ("cert -1 accepted", "cert 1 accepted", "in the section of attempt 1"),
            ("cert 7 accepted", "cert 1 accepted", "in the section of attempt 1"),
            ("attempt 2 end", "attempt 1 end", "in the section of attempt 1"),
            *(
                (" ".join(["map", *stages]), "map ", MAP_OUTSIDE)
                for stages in (
                    MAP_STAGES[:-1] + ["99999999999999999999"],
                    ["-5"] + MAP_STAGES[1:],
                    ["0"] + MAP_STAGES[1:],
                    MAP_STAGES[:-1] + ["201"],
                    MAP_STAGES[:2] + MAP_STAGES[1:],  # a stage twice
                    MAP_STAGES[1:2] + MAP_STAGES[:1] + MAP_STAGES[2:],  # a swap
                )
            ),
        ],
    )
    def test_out_of_bounds_record_is_named(self, new, old_prefix, why):
        parsed = parse_trace(self.with_record(new, old_prefix))
        with pytest.raises(UsageError) as err:
            verify_trace(parsed)
        assert str(err.value) == f"record {new}: {why}"

    @pytest.mark.parametrize(
        "new, old",
        [
            ("begin 1 begin -1 200", "attempt 1 begin -1 200"),
            ("end 1 end", "attempt 1 end"),
            ("accepted 1 accepted", "cert 1 accepted"),
        ],
    )
    def test_third_token_as_first_is_unknown(self, new, old):
        # these used to be read as the record their third token names, and
        # the edited trace passed
        parsed = parse_trace(self.with_record(new, old))
        with pytest.raises(UsageError) as err:
            verify_trace(parsed)
        assert str(err.value) == f"unknown record {new.split()[0]} in trace body"

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


def body_token_edits(text, count, seed):
    """`count` copies of the trace, each with one token of one body line
    replaced by another token of the body or a neighbouring integer, dropped
    or duplicated."""
    lines = text.splitlines()
    first, last = lines.index("scenario-end") + 1, len(lines) - 1
    pool = sorted({tok for line in lines[first:last] for tok in line.split()})
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        edited = list(lines)
        i = rng.randrange(first, last)
        toks = edited[i].split()
        j = rng.randrange(len(toks))
        op = rng.choice(("replace", "drop", "duplicate"))
        if op == "replace":
            tok = toks[j].split(":")[0]
            near = [str(int(tok) + 1), str(int(tok) - 1)] if tok.isdigit() else []
            toks[j] = rng.choice([w for w in near + pool if w != toks[j]])
        elif op == "drop":
            del toks[j]
        else:
            toks.insert(j, toks[j])
        edited[i] = " ".join(toks)
        out.append("\n".join(edited) + "\n")
    return out


def corpus_scenarios_of(group):
    """(name, scenario) of one corpus group."""
    if group == "nosupermax-chains":
        out = []
        for seed in range(24):
            sc = nosupermax_scenario(seed, 200)
            sc.certs = chain_certificates(sc, want=2)
            out.append((f"nsm-{seed}", sc))
        return out
    if group == "upclosure":
        return upclosure_corpus(20)
    corpus = anticomplete_corpus if group == "anticomplete" else twodegrees_corpus
    return corpus(20, 300)


class TestOneVerifyPath:
    """verify_trace decodes a body only when it differs, token for token,
    from the fresh run's encoding. Every outcome, a report or an error, must
    equal decode-first verify's, which decodes every body and hands check a
    string detail."""

    @staticmethod
    def decode_first(parsed):
        """The reference: every body is decoded before the run."""
        sc = parsed.scenario
        module = construction_module(parsed.construction)
        report = VerificationReport(parsed.construction, parsed.scenario_hash)
        try:
            body = split_body(parsed.body)
            log = module.decode(body, sc.horizon)
            run, fresh_log = module.fresh(sc)
            fresh = map(str.split, module.encode(fresh_log))
            detail = first_divergence(body, fresh)
            report.checks, report.caveats = module.check(sc, run, log, detail)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            raise UsageError(f"malformed trace body: {exc}")
        return report

    @classmethod
    def assert_agrees(cls, text, monkeypatch):
        """Checks the outcome and the decode calls of verify_trace: one when
        the body differs from a fresh run's, none otherwise. Returns both."""
        parsed = parse_trace(text)
        module = construction_module(parsed.construction)
        fresh = [line.split() for line in run_scenario(parsed.scenario).body]
        decode = module.decode
        calls = 0

        def counted(body, horizon):
            nonlocal calls
            calls += 1
            return decode(body, horizon)

        def outcome(verify):
            try:
                return verify(parsed).render()
            except SepsimError as exc:
                return f"{type(exc).__name__}: {exc}"

        with monkeypatch.context() as patch:
            patch.setattr(module, "decode", counted)
            got = outcome(verify_trace)
        assert got == outcome(cls.decode_first)
        assert calls == (split_body(parsed.body) != fresh)
        return got, calls

    @pytest.mark.parametrize(
        "path",
        sorted(SAMPLES.glob("*.scn")) + sorted(SAMPLES.parent.glob("certs/*.scn")),
        ids=lambda path: path.stem,
    )
    def test_fixture_traces_are_not_decoded(self, path, monkeypatch):
        text = run_scenario(load_scenario(path.read_text())).render()
        outcome, calls = self.assert_agrees(text, monkeypatch)
        assert calls == 0 and outcome.startswith("sepsim-report")

    @pytest.mark.parametrize("stem", sorted(SAMPLE_TRACES))
    def test_matching_body_is_neither_split_nor_decoded(self, stem, monkeypatch):
        """A body equal line for line to the fresh run's is not split; one
        that differs only in spacing or blank lines is split once, and its
        report is the same, with no decode."""
        text = SAMPLE_TRACES[stem]
        trace = parse_trace(text)
        assert trace.render() == text  # a read trace is the trace written
        module = construction_module(trace.construction)
        calls = Counter()

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(sepsim.verify, "split_body", counted("split", split_body))
        monkeypatch.setattr(module, "decode", counted("decode", module.decode))
        report = verify_trace(trace).render()
        assert calls == Counter()
        respaced = [line.replace(" ", "  ") for line in trace.body]
        trace.body = [" " + respaced[0], "", *respaced[1:], "  "]
        assert verify_trace(trace).render() == report
        assert calls == Counter(split=1)

    @pytest.mark.parametrize(
        "group", ["anticomplete", "twodegrees", "upclosure", "nosupermax-chains"]
    )
    def test_corpus_traces_are_not_decoded(self, group, monkeypatch):
        for name, sc in corpus_scenarios_of(group):
            outcome, calls = self.assert_agrees(run_scenario(sc).render(), monkeypatch)
            assert calls == 0 and outcome.startswith("sepsim-report"), name

    @pytest.mark.parametrize(
        "path", sorted(FAULTS.glob("*.trc")), ids=lambda path: path.stem
    )
    def test_fault_traces_agree(self, path, monkeypatch):
        outcome, _ = self.assert_agrees(path.read_text(), monkeypatch)
        assert outcome.endswith("result fail\n")

    @pytest.mark.parametrize("stem", sorted(SAMPLE_TRACES))
    def test_body_edits_are_decoded_once(self, stem, monkeypatch):
        seen = set()
        for edited in body_token_edits(SAMPLE_TRACES[stem], 40, f"one path {stem}"):
            outcome, calls = self.assert_agrees(edited, monkeypatch)
            assert calls == 1
            seen.add(outcome.splitlines()[-1].split(":")[0])
        assert seen == {"UsageError", "result fail"}, seen

    @pytest.mark.parametrize("body, code", [("bogus 1", 2), (None, 1)])
    def test_malformed_body_exits_two_before_a_hard_fault(
        self, body, code, tmp_path, capsys, monkeypatch
    ):
        """A twodegrees trace whose run hard-faults exits 2 when its body is
        malformed, and 1 (the hard fault) otherwise."""

        def fault(*_):
            raise HardFault("no free column slot")

        monkeypatch.setattr(construction_module("twodegrees"), "run_twodegrees", fault)
        lines = SAMPLE_TRACES["twodegrees-mixed"].splitlines()
        if body is not None:
            lines.insert(lines.index("scenario-end") + 1, body)
        path = tmp_path / "faulting.trc"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--trace", str(path)]) == code
        want = "error: unknown record bogus" if code == 2 else "hard fault: no free"
        assert capsys.readouterr().err.startswith(want)


class TestVerifyScenario:
    """`verify --scenario` runs the construction once, and its report, exit
    code and trace equal those of `run` followed by `verify --trace`."""

    @pytest.mark.parametrize("longer", [None, 6, 50], ids=["own", "plus6", "plus50"])
    @pytest.mark.parametrize(
        "path",
        sorted(SAMPLES.glob("*.scn")) + sorted(SAMPLES.parent.glob("certs/*.scn")),
        ids=lambda path: path.stem,
    )
    def test_one_run_same_outcome(self, path, longer, tmp_path, capsys, monkeypatch):
        sc = load_scenario_file(path)
        horizon = [] if longer is None else ["--horizon", str(sc.horizon + longer)]
        module = construction_module(sc.construction)
        written, verified = tmp_path / "run.trc", tmp_path / "verify.trc"
        args = ["--scenario", str(path), *horizon, "--trace-out"]
        code = main(["run", *args, str(written)])
        if code == 0:
            code = main(["verify", "--trace", str(written)])
        expected = code, capsys.readouterr()
        fresh = module.fresh
        runs = []
        monkeypatch.setattr(module, "fresh", lambda sc: runs.append(sc) or fresh(sc))
        assert (main(["verify", *args, str(verified)]), capsys.readouterr()) == expected
        if written.exists():
            assert verified.read_bytes() == written.read_bytes()
            assert len(runs) == 1
        else:
            assert not verified.exists() and not runs


# upclosure scenarios whose runs lack a block decoding or a recovered
# boundary: a shrunken case-2 corpus scenario, and a corpus scenario whose
# case is declared anew
UNSETTLED = upclosure_scenario(0, 2, horizon=40, domain=64).canonical()
UNDECIDED = upclosure_scenario(33, 2).canonical().replace("case 2\n", "case 1 0\n")


def built_text(builder, seed, horizon):
    """The canonical text of a corpus builder's scenario; an upclosure one
    takes its case and domain (16, 32 or 64) from the seed."""
    if builder == "upclosure":
        domain = (16, 32, 64)[seed % 3]
        sc = upclosure_scenario(seed, 1 + seed % 2, horizon, domain)
    else:
        sc = {
            "anticomplete": anticomplete_scenario,
            "nosupermax": nosupermax_scenario,
            "twodegrees": twodegrees_scenario,
        }[builder](seed, horizon)
    return sc.canonical()


def redeclared_text(seed, case):
    """An upclosure corpus scenario's text with its case record replaced."""
    text = upclosure_scenario(seed, 1 + seed % 2).canonical()
    return re.sub(r"^case .*$", case, text, count=1, flags=re.M)


BUILT_SCENARIOS = st.one_of(
    st.builds(
        built_text,
        st.sampled_from(["anticomplete", "nosupermax", "twodegrees", "upclosure"]),
        st.integers(0, 99),
        st.integers(20, 160),
    ),
    st.builds(
        redeclared_text,
        st.integers(0, 99),
        st.sampled_from(["case 2"] + [f"case 1 {k}" for k in range(8)]),
    ),
)


class TestEveryScenarioExits:
    """Each input ends in exit 0, 1, 2 or 3, never in a raw traceback."""

    @pytest.mark.parametrize(
        "text, fault",
        [
            (UNSETTLED, "boundary 7 = 43: not settled"),
            (UNDECIDED, "block 5 (17, 21]: undecided at horizon"),
        ],
        ids=["unsettled", "undecided"],
    )
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_missing_upclosure_step_is_a_hard_fault(
        self, command, text, fault, tmp_path, capsys
    ):
        path = tmp_path / "scn.txt"
        path.write_text(text)
        assert main([command, "--scenario", str(path)]) == 1
        assert capsys.readouterr().err == f"hard fault: {fault}\n"

    def test_well_formed_trace_of_a_faulting_run_is_a_hard_fault(self, tmp_path, capsys):
        sc = load_scenario(UNSETTLED)
        body = ["caseok true", "mseq -1", "mseq-missing -", "z -"]
        path = tmp_path / "hand.trc"
        path.write_text(Trace(sc, UNSETTLED, digest(sc), body).render())
        assert main(["verify", "--trace", str(path)]) == 1
        assert capsys.readouterr().err == "hard fault: boundary 7 = 43: not settled\n"

    @settings(max_examples=60, deadline=None)
    @given(text=BUILT_SCENARIOS)
    @example(text=UNSETTLED)
    @example(text=UNDECIDED)
    def test_built_scenario_verifies_to_an_exit_code(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("built") / "scn.txt"
        path.write_text(text)
        assert main(["verify", "--scenario", str(path)]) in (0, 1, 2, 3)


class TestCanonicalIntegers:
    """Every integer a trace carries is written in canonical decimal. A
    respelled integer makes the body differ from the fresh run's, so it is
    decoded, and the nosupermax decoder refuses it; the other constructions'
    exactness checks fail on it."""

    @pytest.mark.parametrize(
        "old, new",
        [
            ("ev 59 boundary 0", "ev +59 boundary 0"),
            ("ev 59 boundary 0", "ev 5_9 boundary 0"),
            ("ev 59 boundary 0", "ev 59 boundary 00"),
            ("ev 59 boundary 0", "ev 59 boundary +0"),
            ("ev 2 xin 1", "ev 2 xin \u0661"),
            ("attempt 1 begin -1 200", "attempt 1 begin -01 200"),
            ("attempt 1 begin -1 200", "attempt 1 begin -1 +200"),
            ("attempt 1 end", "attempt 01 end"),
            ("cert 1 accepted", "cert +1 accepted"),
        ],
    )
    def test_respelled_integer_exits_two(self, old, new, tmp_path, capsys):
        lines = list(CHAIN_LINES)
        lines[lines.index(old)] = new
        path = tmp_path / "respelled.trc"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"record {new}: an integer is not in canonical decimal" in err

    def test_two_bad_fields_name_the_value(self, tmp_path, capsys):
        # a one-field record is read value first, as every other record is
        lines = list(CHAIN_LINES)
        lines[lines.index("ev 59 boundary 0")] = "ev x boundary y"
        path = tmp_path / "bad.trc"
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--trace", str(path)]) == 2
        assert "invalid literal for int() with base 10: 'y'" in capsys.readouterr().err

    def test_respelled_map_stage_exits_two(self):
        line = next(line for line in CHAIN_LINES if line.startswith("map "))
        new = line.replace("map ", "map 0", 1)
        lines = [new if l == line else l for l in CHAIN_LINES]
        with pytest.raises(UsageError, match="an integer is not in canonical decimal"):
            verify_trace(parse_trace("\n".join(lines) + "\n"))


def trace_token(tok, rng, pool):
    """A token from the trace, or for an integer token one of its neighbours
    or a respelling of it that int() still reads."""
    choices = [rng.choice(pool)]
    if tok.lstrip("-").isdigit():
        n = int(tok)
        respelled = f"{tok[:-1]}_{tok[-1]}" if len(tok) > 1 else f"0_{tok}"
        choices += [str(n + 1), str(n - 1), f"+{tok}", f"0{tok}", respelled]
    return rng.choice(choices)


def edit_trace(lines, rng, pool):
    """The trace lines with one line (header, embedded scenario, body or
    `end`), or one token of it, appended, dropped, replaced or duplicated."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    op = rng.choice(("append", "drop", "replace", "duplicate"))
    if rng.random() < 0.5:
        if op == "append":
            lines.insert(i + 1, rng.choice(lines))
        elif op == "drop":
            del lines[i]
        elif op == "replace":
            lines[i] = rng.choice(lines)
        else:
            lines.insert(i, lines[i])
        return lines
    toks = lines[i].split()
    j = rng.randrange(len(toks))
    if op == "append":
        toks.append(trace_token(toks[j], rng, pool))
    elif op == "drop":
        del toks[j]
    elif op == "replace":
        toks[j] = trace_token(toks[j], rng, pool)
    else:
        toks.insert(j, toks[j])
    lines[i] = " ".join(toks)
    return lines


class TestBodyEditFuzz:
    EDITS_PER_SAMPLE = 80

    @pytest.mark.parametrize("stem", sorted(SAMPLE_TRACES))
    def test_edited_body_never_passes(self, stem):
        """Seeded edits of any line of a sample trace, from its header through
        the embedded scenario and the body to `end`: every edit that changes
        the trace's token sequence ends in exit 2 or a failing report."""
        rng = random.Random(f"body-edit {stem}")
        lines = SAMPLE_TRACES[stem].splitlines()
        tokens = [line.split() for line in lines]
        pool = sorted({tok for toks in tokens for tok in toks})
        passed = []
        for _ in range(self.EDITS_PER_SAMPLE):
            edited = edit_trace(lines, rng, pool)
            if [toks for toks in map(str.split, edited) if toks] == tokens:
                continue
            try:
                report = verify_trace(parse_trace("\n".join(edited) + "\n"))
            except UsageError:
                continue
            if report.passed:
                passed.append(next(a for a, b in zip(edited, lines) if a != b))
        assert not passed, passed

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

    def test_replay_reads_the_trace_before_writing_over_it(self, tmp_path, scenario_file):
        trace = tmp_path / "out.trc"
        res = run_cli(
            ["run", "--scenario", str(scenario_file), "--trace-out", str(trace)],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        fresh = trace.read_text()
        lines = fresh.splitlines()
        i = next(i for i, line in enumerate(lines) if " xin " in line)
        lines[i] += "0"
        trace.write_text("\n".join(lines) + "\n")
        args = ["--scenario", str(scenario_file), "--trace", str(trace)]
        res = run_cli(["replay", *args, "--trace-out", str(trace)], tmp_path)
        assert res.returncode == 1, res.stderr
        assert res.stdout == "replay mismatch\n"
        assert trace.read_text() == fresh

    def test_verify_trace_takes_no_scenario_options(self, tmp_path, capsys):
        trace = tmp_path / "in.trc"
        trace.write_text(SAMPLE_TRACES["nosupermax-sparse"])
        out = tmp_path / "out.trc"
        scenario = str(SAMPLES / "nosupermax-sparse.scn")
        options = [
            ["--scenario", scenario],
            ["--horizon", "5"],
            ["--trace-out", str(out)],
        ]
        for given in (*options, [tok for option in options for tok in option]):
            assert main(["verify", "--trace", str(trace), *given]) == 2, given
            err = capsys.readouterr().err
            assert err == f"error: verify --trace takes no {given[0]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags, reports", [([], 2), (["--fail-fast"], 1)])
    def test_fail_fast_stops_at_the_first_failing_trace(self, flags, reports, capsys):
        paths = [FAULTS / "anticomplete-claims.trc", FAULTS / "twodegrees-rtb.trc"]
        args = [tok for path in paths for tok in ("--trace", str(path))]
        assert main(["verify", *args, *flags]) == 1
        assert capsys.readouterr().out.count("sepsim-report 1\n") == reports

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
        missing = tmp_path / "missing.txt"
        res = run_cli(["run", "--scenario", str(missing)], tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"error: cannot read {missing}: "), res.stderr

    def test_unwritable_trace_out_exit_two(self, tmp_path, scenario_file):
        out = tmp_path / "missing" / "x.trc"
        res = run_cli(
            ["run", "--scenario", str(scenario_file), "--trace-out", str(out)],
            tmp_path,
        )
        assert res.returncode == 2, res.stderr
        assert f"error: cannot write {out}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_unwritable_report_out_exit_two(self, tmp_path, scenario_file):
        out = tmp_path / "missing" / "r.txt"
        res = run_cli(
            ["verify", "--scenario", str(scenario_file), "--report-out", str(out)],
            tmp_path,
        )
        assert res.returncode == 2, res.stderr
        assert f"error: cannot write {out}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_non_utf8_input_exit_two(self, tmp_path, scenario_file):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"sepsim-scenario 1\n\xff\xfe\n")
        commands = [
            ["run", "--scenario", str(bad)],
            ["verify", "--trace", str(bad)],
            ["replay", "--scenario", str(scenario_file), "--trace", str(bad)],
        ]
        for args in commands:
            res = run_cli(args, tmp_path)
            assert res.returncode == 2, (args[0], res.stderr)
            assert f"{bad}: not UTF-8 text" in res.stderr, args[0]
            assert "Traceback" not in res.stderr, args[0]

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
        assert bad.canonical() != good.canonical()
        text = text.replace(good.canonical(), bad.canonical())
        trace = tmp_path / "bad.trc"
        trace.write_text(text.replace(digest(good), digest(bad)))
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


def attribute_reads():
    """Every attribute read in src, tests, tools or perfbench, and every
    name loaded there: (names, attrs). Each part of a dotted string, such as
    perfbench's tracing targets, counts as an attribute read."""
    root = PACKAGE.parents[1]
    dotted = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
    names, attrs = set(), set()
    for folder in ("src", "tests", "tools", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                loaded = isinstance(getattr(node, "ctx", None), ast.Load)
                if isinstance(node, ast.Name) and loaded:
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and loaded:
                    attrs.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if dotted.fullmatch(node.value):
                        attrs.update(node.value.split("."))
    return names, attrs


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

    def test_every_definition_is_read(self):
        """Each module-level function, class and constant of the package is
        read somewhere in src, tests, tools or perfbench: loaded as a name or
        an attribute, or named in a dotted string such as perfbench's tracing
        targets. A method, dunders aside, must be read as an attribute or in a
        dotted string."""
        names, attrs = attribute_reads()
        unread = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.parse(path.read_text(), filename=str(path)).body:
                defined = []  # (name, the reads that count for it)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((node.name, names | attrs))
                if isinstance(node, ast.ClassDef):
                    defined += [
                        (f"{node.name}.{item.name}", attrs)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")
                    ]
                elif isinstance(node, ast.Assign):
                    defined += [
                        (t.id, names | attrs)
                        for t in node.targets
                        if isinstance(t, ast.Name) and not t.id.startswith("__")
                    ]
                unread += [
                    f"{path.name}:{node.lineno} {name}"
                    for name, reads in defined
                    if name.rpartition(".")[2] not in reads
                ]
        assert not unread, unread

    def test_every_parameter_is_read(self):
        """Each parameter of a package function or lambda is read in its
        body, so that no argument is passed and never used. `self` and a
        name that starts with `_`, as in `no_rules(*_)`, are exempt."""
        unread = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                    continue
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                params += [p for p in (args.vararg, args.kwarg) if p is not None]
                body = node.body if isinstance(node, ast.FunctionDef) else [node.body]
                read = {
                    leaf.id
                    for statement in body
                    for leaf in ast.walk(statement)
                    if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load)
                }
                name = getattr(node, "name", "lambda")
                unread += [
                    f"{path.name}:{node.lineno} {name} {p.arg}"
                    for p in params
                    if p.arg not in read and p.arg != "self" and p.arg[0] != "_"
                ]
        assert not unread, unread

    def test_every_stored_attribute_is_read(self):
        """Each attribute a package class stores on `self` is read as an
        attribute, by the same name, somewhere in src, tests, tools or
        perfbench, so that no field is written and never read."""
        _, attrs = attribute_reads()
        unread = [
            f"{path.name}:{node.lineno} {node.attr}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr not in attrs
        ]
        assert not unread, unread

    def test_every_slot_is_stored(self):
        """Each name in a package class's `__slots__` is stored on `self` in
        that class, so that no slot outlives the field it was made for."""
        unstored = []
        for path in sorted(PACKAGE.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                slots = [
                    item.value
                    for item in cls.body
                    if isinstance(item, ast.Assign)
                    and any(getattr(t, "id", None) == "__slots__" for t in item.targets)
                ]
                if not slots:
                    continue
                stored = {
                    node.attr
                    for node in ast.walk(cls)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                }
                unstored += [
                    f"{path.name}:{cls.lineno} {cls.name}.{name}"
                    for name in ast.literal_eval(slots[0])
                    if name not in stored
                ]
        assert not unstored, unstored


def load_perfbench(stem):
    """A benchmark module, read from its file and left unchanged. It is
    registered before it runs, as `dataclass` looks its module up."""
    path = PACKAGE.parents[1] / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkReference:
    def test_traces_match_the_reference_digests(self):
        """Every trace the benchmark checks hashes to its digest in
        perfbench/reference.json, so a changed trace byte fails here and not
        only in a benchmark run."""
        workloads = load_perfbench("workloads")
        reference = json.loads(workloads.REFERENCE.read_text())
        got = {
            workload: {
                name: workloads.sha256(run_scenario(load_scenario(text)).render())
                for name, text, _, _ in build()
            }
            for workload, build in (
                ("oracle-corpora", workloads.oracle_pool),
                ("nosupermax-horizon", workloads.nosupermax_pool),
            )
        }
        got["cli-fixtures"] = {
            scn.stem: workloads.sha256(run_scenario(load_scenario_file(scn)).render())
            for scn in sorted(SAMPLES.glob("*.scn"))
        }
        assert {w: sorted(d) for w, d in got.items()} == {
            w: sorted(d) for w, d in reference.items()
        }
        differ = [
            f"{workload} {name}"
            for workload, digests in sorted(reference.items())
            for name, digest in sorted(digests.items())
            if got[workload][name] != digest
        ]
        assert not differ, (
            f"trace digest differs from perfbench/reference.json: {differ};"
            " if the change is meant to alter trace bytes, rerun"
            " perfbench/record_reference.py and say why"
        )


class TestBenchmarkTracing:
    def test_tracer_binds_every_name_and_unbinds(self):
        """The benchmark's tracer wraps package functions by name; a rename
        that drops one fails here, not in a traced benchmark run."""
        tracing = load_perfbench("tracing")

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
        tracer = load_perfbench("tracing").Tracer()
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


class TestFixtureBuilder:
    def test_make_fixtures_rebuilds_the_committed_scenarios(self, tmp_path):
        """tools/make_fixtures.py, run in a fresh tree, writes exactly the
        committed scenarios/ directory: no file more, less or different."""
        root = PACKAGE.parents[1]
        shutil.copytree(root / "tools", tmp_path / "tools")
        (tmp_path / "src").symlink_to(root / "src", target_is_directory=True)
        res = subprocess.run(
            [sys.executable, str(tmp_path / "tools" / "make_fixtures.py")],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env=cli_env(),
        )
        assert res.returncode == 0, res.stderr

        def files(top):
            return {
                str(path.relative_to(top)): path.read_bytes()
                for path in sorted(top.rglob("*"))
                if path.is_file()
            }

        built, committed = files(tmp_path / "scenarios"), files(root / "scenarios")
        assert sorted(built) == sorted(committed)
        assert [name for name in built if built[name] != committed[name]] == []
