"""Scenario loading, trace round trips, verification dispatch, CLI."""

import subprocess
import sys
from pathlib import Path

import pytest

from cli_env import cli_env
from sepsim.anticomplete import run_anticomplete
from sepsim.corpus import (
    anticomplete_scenario,
    chain_certificates,
    nosupermax_scenario,
    twodegrees_scenario,
    upclosure_scenario,
)
from sepsim.errors import HypothesisViolation, UsageError
from sepsim.nosupermax import run_nosupermax
from sepsim.scenario import Scenario, load_scenario, parse_scenario
from sepsim.trace import (
    decode_anticomplete,
    decode_nosupermax,
    decode_twodegrees,
    decode_upclosure,
    encode_event_log,
    encode_nosupermax,
    encode_upclosure,
    first_divergence,
    parse_trace,
    run_scenario,
    run_upclosure_pipeline,
    twodegrees_inputs,
)
from sepsim.twodegrees import run_twodegrees
from sepsim.verify import verify_trace

SAMPLES = Path(__file__).resolve().parents[1] / "scenarios" / "samples"

MINIMAL_TWODEGREES = """\
sepsim-scenario 1
construction twodegrees
horizon 10
end
"""


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
    finals = {name: s.freeze().events for name, s in sets.items()}
    return (run.records, finals), encode_event_log, decode


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
        assert first_divergence(body, ["caseok true", "mseq 1 3"]) == ""
        assert (
            first_divergence(body, ["caseok true", "mseq 1 4"])
            == "record 2: mseq 1 3 (fresh run: mseq 1 4)"
        )
        assert (
            first_divergence(body[:1], ["caseok true", "mseq 1 3"])
            == "record 2: end (fresh run: mseq 1 3)"
        )


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
