"""Command line interface.

    sepsim run    --scenario S [--horizon N] [--trace-out T]
    sepsim verify (--trace T ... | --scenario S [--horizon N] [--trace-out T])
                  [--report-out R] [--fail-fast]
    sepsim replay --scenario S --trace T [--horizon N] [--trace-out T2]

Exit codes: 0 all passed, 1 invariant violation or replay mismatch,
2 usage or parse error, 3 hypothesis violation.
"""

from __future__ import annotations

import argparse
import sys

from .errors import HardFault, HypothesisViolation, UsageError
from .scenario import load_scenario_file, read_file
from .trace import parse_trace, run_scenario
from .verify import verify_trace

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}")


def _cmd_run(args) -> int:
    sc = load_scenario_file(args.scenario, args.horizon)
    trace = run_scenario(sc)
    _write(args.trace_out, trace.render())
    return EXIT_OK


def _cmd_verify(args) -> int:
    reports = []
    if args.trace:
        for option in ("scenario", "horizon", "trace_out"):
            if getattr(args, option) is not None:
                flag = "--" + option.replace("_", "-")
                raise UsageError(f"verify --trace takes no {flag}")
        for path in args.trace:
            parsed = parse_trace(read_file(path))
            report = verify_trace(parsed)
            reports.append((path, report))
            if args.fail_fast and not report.passed:
                break
    elif args.scenario:
        sc = load_scenario_file(args.scenario, args.horizon)
        text = run_scenario(sc).render()
        if args.trace_out:
            _write(args.trace_out, text)
        reports.append((args.scenario, verify_trace(parse_trace(text))))
    else:
        raise UsageError("verify needs --trace or --scenario")
    text = "".join(r.render() for _, r in reports)
    _write(args.report_out, text)
    return EXIT_OK if all(r.passed for _, r in reports) else EXIT_VIOLATION


def _cmd_replay(args) -> int:
    sc = load_scenario_file(args.scenario, args.horizon)
    recorded = read_file(args.trace)  # before --trace-out may overwrite it
    fresh = run_scenario(sc).render()
    if args.trace_out:
        _write(args.trace_out, fresh)
    if fresh == recorded:
        sys.stdout.write("replay identical\n")
        return EXIT_OK
    sys.stdout.write("replay mismatch\n")
    return EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepsim",
        description="deterministic construction runs over separating classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit its trace")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--horizon", type=int, default=None)
    p_run.add_argument("--trace-out", default=None)

    p_verify = sub.add_parser("verify", help="check every invariant of a trace")
    p_verify.add_argument("--trace", action="append", default=[])
    p_verify.add_argument("--scenario", default=None)
    p_verify.add_argument("--horizon", type=int, default=None)
    p_verify.add_argument("--trace-out", default=None)
    p_verify.add_argument("--report-out", default=None)
    p_verify.add_argument("--fail-fast", action="store_true")

    p_replay = sub.add_parser(
        "replay", help="re-run a scenario and compare against a recorded trace"
    )
    p_replay.add_argument("--scenario", required=True)
    p_replay.add_argument("--trace", required=True)
    p_replay.add_argument("--horizon", type=int, default=None)
    p_replay.add_argument("--trace-out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "replay":
            return _cmd_replay(args)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except HardFault as exc:
        print(f"hard fault: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
