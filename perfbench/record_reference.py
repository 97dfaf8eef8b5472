#!/usr/bin/env python3
"""Record the reference trace digests the benchmark checks against.

    python3 perfbench/record_reference.py

Runs every item of the in-process pools once and every committed sample
scenario once, and writes the sha256 of each trace to perfbench/reference.json.
Refuses to write when any report fails. Rerun only when a change is meant to
alter trace bytes, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from sepsim.scenario import load_scenario_file  # noqa: E402
from sepsim.trace import run_scenario  # noqa: E402

from workloads import REFERENCE, ROOT, in_process_items, run_in_process, sha256  # noqa: E402


def main():
    reference = {}
    for workload in ("oracle-corpora", "nosupermax-horizon"):
        digests = {}
        for (item,) in in_process_items(workload, {}):
            passed, trace = run_in_process(item)
            if not passed:
                sys.exit(f"{item.name}: report fails; reference not written")
            digests[item.name] = sha256(trace)
        reference[workload] = digests
    reference["cli-fixtures"] = {
        scn.stem: sha256(run_scenario(load_scenario_file(scn)).render())
        for scn in sorted((ROOT / "scenarios" / "samples").glob("*.scn"))
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(len(v) for v in reference.values())} digests to {REFERENCE}")


if __name__ == "__main__":
    main()
