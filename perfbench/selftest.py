"""Tests of the benchmark itself, on tiny pools of every workload.

    python3 -m pytest -q perfbench/selftest.py

They check that every metric named in BENCHMARK.json is printed, that each
per-layer metric records work on the workload meant to exercise it, that the
deterministic counts repeat, and that the correctness gate trips on a wrong
known answer.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
_results = {}


def tiny(workload, trace, fresh=False, **overrides):
    """Result of one run on the workload's tiny pool; cached unless fresh or
    given a reference or fault labels to use instead of the committed ones."""
    key = (workload, trace)
    if fresh or overrides or key not in _results:
        args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=trace)
        result = bench.measure(args, tiny=True, **overrides)
        if fresh or overrides:
            return result
        _results[key] = result
    return _results[key]


def intended_workload(metric):
    if metric.startswith(("nosupermax.", "verify.nosupermax.")):
        return "nosupermax-horizon"
    if metric.startswith("cli."):
        return "cli-fixtures"
    return "oracle-corpora"


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_metric_printed_and_answers_known(workload):
    untraced = tiny(workload, 0)
    assert set(untraced["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    traced = tiny(workload, 1)
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for result in (untraced, traced):
        assert result["correct"], result["errors"]
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_every_layer_metric_records_work_on_its_workload():
    for spec in SPEC["per_layer"]:
        name = spec["name"]
        if name == "tracing.overhead_s":
            continue
        value = tiny(intended_workload(name), 1)["metrics"][name]["value"]
        assert value > 0, f"{name} recorded nothing on {intended_workload(name)}"
    called = set()
    for workload in bench.WORKLOADS:
        called |= {k for k, v in tiny(workload, 1)["detail"]["span_calls"].items() if v}
    span_names = {name for _, _, name, _ in TARGETS if name}
    span_names |= {f"verify.{c}" for c in ("anticomplete", "upclosure", "nosupermax", "twodegrees")}
    assert span_names <= called, span_names - called


@pytest.mark.parametrize("workload", ["oracle-corpora", "nosupermax-horizon"])
def test_deterministic_counts_repeat(workload):
    first = tiny(workload, 1)
    second = tiny(workload, 1, fresh=True)
    for name in bench.DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["detail"]["span_calls"] == second["detail"]["span_calls"]


def test_corrupted_reference_digest_is_a_verdict_error():
    reference = json.loads(workloads.REFERENCE.read_text())
    item = "upclosure-case2-000"
    reference["oracle-corpora"][item] = "0" * 64
    result = tiny("oracle-corpora", 0, reference=reference)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert {name for name, _ in result["errors"]} == {item}


def test_fault_trace_labelled_pass_is_a_verdict_error():
    labels = dict(workloads.read_pairs(ROOT / "scenarios" / "faults" / "manifest.txt"))
    labels["twodegrees-rtb.trc"] = "pass"
    result = tiny("cli-fixtures", 0, fault_labels=labels)
    assert not result["correct"]
    assert {name for name, _ in result["errors"]} == {"fault:twodegrees-rtb.trc"}


def test_cli_processes_get_an_absolute_src_path():
    env = workloads.subprocess_env()
    src = Path(env["PYTHONPATH"])
    assert src.is_absolute() and (src / "sepsim" / "cli.py").is_file()


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-corpora",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
