"""Workload pools, item execution and the known answers each verdict is
checked against.

Every workload is a fixed pool of items built by `sepsim`'s own corpus
builders (or taken from the committed fixtures), so each item has a known
answer recorded at the commit that defined the benchmark. The benchmark seed
sets the order in which a run visits the pool, pass after pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"

# Why each workload is in the benchmark (also in BENCHMARK.json).
WHY = {
    "oracle-corpora": (
        "anticomplete, twodegrees and upclosure corpora through the whole"
        " pipeline: time sits in functionals, enumcore and the parsers, none"
        " in nosupermax"
    ),
    "nosupermax-horizon": (
        "nosupermax flavours with certificate chains over a horizon sweep:"
        " quadratic run and verify, no oracle evaluation"
    ),
    "cli-fixtures": (
        "one sepsim process per command on every committed fixture:"
        " interpreter start, import, file I/O and the failing-check paths"
    ),
}

# nosupermax-horizon pool: (builder seed, horizon). Builder seed 1 is the
# cofinite flavour, which fails attempt 1 and carries a certificate chain.
# Seeds 0 (sparse) and 3 (sparse over cofinite) are swept in horizon.
NOSUPERMAX_POOL = [
    (0, 1000), (1, 1000), (2, 1000), (3, 1000),
    (0, 2000), (3, 2000),
    (0, 4000), (3, 4000),
]
SWEPT_SEEDS = (0, 3)
CHAINED_SEEDS = (1,)

# Smaller than the acceptance corpora (20, 20 and 200): a pass must take a few
# seconds so that a run repeats every item, and a full pass takes about 21 s.
ORACLE_SIZES = {"anticomplete": 20, "twodegrees": 10, "upclosure_per_case": 20}

# Pools for the benchmark's own tests: a few cheap items of each full pool.
TINY = {
    "oracle-corpora": {
        "anticomplete-empty", "anticomplete-00", "twodegrees-coding-only",
        "upclosure-case1-000", "upclosure-case2-000",
    },
    "nosupermax-horizon": {
        "nosupermax-00-h1000", "nosupermax-00-h2000", "nosupermax-01-h1000-chain2",
    },
    "cli-fixtures": {
        "run:nosupermax-chain", "verify:nosupermax-chain", "replay:nosupermax-chain",
        "fault:twodegrees-rtb.trc", "cert:cert-genuine.scn",
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Item:
    """One unit of work handed to the program, with its known answer.

    expect is a tuple: ("pass", digest) for an in-process scenario;
    ("digest", digest) for `run`; ("pass",) for `verify`; ("replay",) for
    `replay`; ("fails", check) or ("pass",) for a fault trace; ("cert",
    "accept"|"reject") for a certificate fixture. output is the trace file a
    CLI command writes, removed before each run of it.
    """

    name: str
    expect: tuple
    text: str = ""
    horizon: int = 0
    sweep: int | None = None  # builder seed of a horizon-swept scenario
    argv: list[str] = field(default_factory=list)
    output: str | None = None


# ---------------------------------------------------------------------------
# in-process pools


def oracle_pool():
    from sepsim.corpus import anticomplete_corpus, twodegrees_corpus, upclosure_corpus

    pool = anticomplete_corpus(ORACLE_SIZES["anticomplete"], 1000)
    pool += twodegrees_corpus(20, 1000)[: ORACLE_SIZES["twodegrees"]]
    pool += upclosure_corpus(ORACLE_SIZES["upclosure_per_case"])
    return [(name, sc.canonical(), sc.horizon, None) for name, sc in pool]


def nosupermax_pool():
    from sepsim.corpus import chain_certificates, nosupermax_scenario

    out = []
    for seed, horizon in NOSUPERMAX_POOL:
        sc = nosupermax_scenario(seed, horizon)
        name = f"nosupermax-{seed:02d}-h{horizon}"
        if seed in CHAINED_SEEDS:
            sc.certs = chain_certificates(sc, want=2)
            name += f"-chain{len(sc.certs)}"
        out.append((name, sc.canonical(), horizon, seed if seed in SWEPT_SEEDS else None))
    return out


def in_process_items(workload, reference, tiny=False):
    """Build the workload's scenarios; returns one single-item unit each."""
    build = oracle_pool if workload == "oracle-corpora" else nosupermax_pool
    refs = reference.get(workload, {})
    units = []
    for name, text, horizon, sweep in build():
        if tiny and name not in TINY[workload]:
            continue
        units.append([Item(name, ("pass", refs.get(name)), text=text,
                           horizon=horizon, sweep=sweep)])
    return units


def run_in_process(item):
    """canonical text -> load -> run -> render -> parse -> verify."""
    from sepsim.scenario import load_scenario
    from sepsim.trace import parse_trace, run_scenario
    from sepsim.verify import verify_trace

    sc = load_scenario(item.text)
    trace = run_scenario(sc).render()
    report = verify_trace(parse_trace(trace))
    return report.passed, trace


def check_in_process(item, outcome):
    passed, trace = outcome
    _, digest = item.expect
    if not passed:
        return "report fails"
    if digest is None:
        return "no reference digest"
    if sha256(trace) != digest:
        return "trace digest differs from the reference"
    return None


# ---------------------------------------------------------------------------
# CLI pool


def read_pairs(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rows.append(tuple(line.split()))
    return rows


def cli_setup(work: Path, env):
    """Copy the committed fixtures into the work directory and import the
    package once in a fresh process, so bytecode exists before timing."""
    if work.exists():
        shutil.rmtree(work)
    for sub in ("samples", "faults", "certs"):
        shutil.copytree(ROOT / "scenarios" / sub, work / sub)
    (work / "out").mkdir()
    subprocess.run(
        [sys.executable, "-c", "import sepsim.cli"], env=env, check=True, timeout=120
    )


def cli_items(work: Path, reference, tiny=False, fault_labels=None):
    """Units of CLI invocations; a sample's run, verify and replay stay one
    unit so that verify and replay read the trace run just wrote."""
    refs = reference.get("cli-fixtures", {})
    units = []
    for scn in sorted((work / "samples").glob("*.scn")):
        base = scn.stem
        trc = str(work / "out" / f"{base}.trc")
        units.append([
            Item(f"run:{base}", ("digest", refs.get(base)), output=trc,
                 argv=["run", "--scenario", str(scn), "--trace-out", trc]),
            Item(f"verify:{base}", ("pass",), argv=["verify", "--trace", trc]),
            Item(f"replay:{base}", ("replay",),
                 argv=["replay", "--scenario", str(scn), "--trace", trc]),
        ])
    labels = fault_labels or dict(read_pairs(work / "faults" / "manifest.txt"))
    for fname, check in sorted(labels.items()):
        expect = ("pass",) if check == "pass" else ("fails", check)
        units.append([Item(f"fault:{fname}", expect,
                           argv=["verify", "--trace", str(work / "faults" / fname)])])
    for fname, label in sorted(read_pairs(work / "certs" / "labels.txt")):
        trc = str(work / "out" / f"{fname}.trc")
        units.append([Item(f"cert:{fname}", ("cert", label), output=trc,
                           argv=["verify", "--scenario", str(work / "certs" / fname),
                                 "--trace-out", trc])])
    if tiny:
        units = [[i for i in u if i.name in TINY["cli-fixtures"]] for u in units]
        units = [u for u in units if u]
    return units


def subprocess_env():
    """Environment for CLI processes: an absolute `src` path, taken from the
    imported package, so the processes do not depend on their cwd."""
    import sepsim

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(sepsim.__file__).resolve().parents[1])
    return env


def run_cli_process(item, env, cwd):
    res = subprocess.run(
        [sys.executable, "-m", "sepsim", *item.argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return res.returncode, res.stdout


def run_cli_in_process(item):
    from sepsim import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(item.argv))
    return rc, out.getvalue()


def check_cli(item, outcome):
    rc, stdout = outcome
    kind = item.expect[0]
    if kind == "digest":
        digest = item.expect[1]
        if rc != 0:
            return f"exit code {rc}"
        if digest is None:
            return "no reference digest"
        if sha256(Path(item.output).read_text()) != digest:
            return "trace digest differs from the reference"
    elif kind == "pass":
        if rc != 0 or not stdout.endswith("result pass\n"):
            return f"expected a passing report, exit code {rc}"
    elif kind == "replay":
        if rc != 0 or stdout != "replay identical\n":
            return f"replay not identical, exit code {rc}"
    elif kind == "fails":
        if rc != 1 or f"\ncheck {item.expect[1]} fail" not in stdout:
            return f"check {item.expect[1]} did not fail, exit code {rc}"
    elif kind == "cert":
        label = item.expect[1]
        if rc != 0:
            return f"exit code {rc}"
        lines = [
            l for l in Path(item.output).read_text().splitlines()
            if l == "cert 1 accepted" or l.startswith("cert 1 rejected ")
        ]
        got = "accept" if lines and lines[0] == "cert 1 accepted" else "reject"
        if len(lines) != 1 or got != label:
            return f"certificate outcome {lines[:1]} differs from label {label}"
    return None


# ---------------------------------------------------------------------------


class Workload:
    """A pool of units plus how to execute and check one item."""

    def __init__(self, name, reference, tiny=False, fault_labels=None):
        self.name = name
        self.reference = reference
        self.tiny = tiny
        self.fault_labels = fault_labels
        self.units: list[list[Item]] = []
        self.work = OUT_DIR / f"work-{name}"
        self.cli = name == "cli-fixtures"
        self.env = subprocess_env() if self.cli else None

    def setup(self):
        """Build the inputs."""
        if self.cli:
            cli_setup(self.work, self.env)
            self.units = cli_items(self.work, self.reference, self.tiny, self.fault_labels)
        else:
            self.units = in_process_items(self.name, self.reference, self.tiny)

    def items(self):
        return [item for unit in self.units for item in unit]

    def execute(self, item, in_process=False):
        if not self.cli:
            return run_in_process(item)
        if item.output:
            Path(item.output).unlink(missing_ok=True)
        if in_process:
            return run_cli_in_process(item)
        return run_cli_process(item, self.env, self.work)

    def check(self, item, outcome):
        if self.cli:
            return check_cli(item, outcome)
        return check_in_process(item, outcome)
