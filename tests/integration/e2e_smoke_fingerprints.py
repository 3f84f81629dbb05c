"""Compare the end-to-end smoke run's simulated outcomes with the committed ones.

    python3 benchmarks/e2e/run.py --smoke                          # writes results/latest.json
    python3 tests/integration/e2e_smoke_fingerprints.py            # exit 1 on any difference
    python3 tests/integration/e2e_smoke_fingerprints.py --write    # after a deliberate model change

``e2e_smoke_fingerprints.json`` beside this file holds, for each of the five
benchmark workloads at smoke size, the seed and the ``sim_fingerprint`` — the
sha256 of the ``repro.obs/v1`` document the run produced.  A change that is
meant to move host time only must leave every one of them as it is; CI runs
the comparison right after the smoke run.  This script runs nothing itself: it
reads ``benchmarks/e2e/results/latest.json``, refuses one that is not a smoke
run, prints the table for the job summary on stdout and every difference on
stderr.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "e2e_smoke_fingerprints.json"
LATEST = HERE.parents[1] / "benchmarks" / "e2e" / "results" / "latest.json"

Fingerprints = dict[str, dict[str, Any]]


def fingerprints(results: dict[str, Any]) -> Fingerprints:
    """``workload -> {seed, sim_fingerprint}`` from a results file of ``run.py --smoke``."""
    if not results.get("smoke"):
        raise ValueError("not a smoke run: first `python3 benchmarks/e2e/run.py --smoke`")
    return {
        name: {"seed": row["seed"], "sim_fingerprint": row["sim_fingerprint"]}
        for name, row in sorted(results["workloads"].items())
    }


def differences(committed: Fingerprints, measured: Fingerprints) -> list[str]:
    """One line per workload whose seed or fingerprint differs, or that only
    one side has."""
    return [
        f"{name}: committed {committed.get(name)}, this run {measured.get(name)}"
        for name in sorted(committed.keys() | measured.keys())
        if committed.get(name) != measured.get(name)
    ]


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    measured = fingerprints(json.loads(LATEST.read_text()))
    if argv:
        COMMITTED.write_text(json.dumps(measured, indent=2) + "\n")
        print(f"{COMMITTED.name}: wrote {len(measured)} workloads")
        return 0
    print("### e2e smoke: sim_fingerprint per workload\n")
    print("| workload | seed | sim_fingerprint |\n|---|---|---|")
    for name, row in measured.items():
        print(f"| {name} | {row['seed']} | `{row['sim_fingerprint']}` |")
    changed = differences(json.loads(COMMITTED.read_text()), measured)
    for line in changed:
        print(line, file=sys.stderr)
    if changed:
        print(
            f"\nA simulated outcome moved.  A host-only change must not do that; if the "
            f"model was changed on purpose, regenerate {COMMITTED.name} with\n"
            f"    python3 tests/integration/{Path(__file__).name} --write",
            file=sys.stderr,
        )
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
