"""Append the last end-to-end benchmark run to the committed trajectory.

    python3 benchmarks/e2e/run.py                      # writes results/latest.json
    python3 benchmarks/bench_e2e_row.py "PR 17" "what changed"

``BENCH_e2e.json`` at the repository root holds one row per commit or PR:
for each of the five workloads the medians of the six end-to-end metrics
of ``BENCHMARK.json`` and the ``sim_fingerprint``, plus ``fig3``'s traced
split of host time.  This script only reads
``benchmarks/e2e/results/latest.json`` — it runs nothing — and refuses a
smoke-size, partial or failed run.  A row whose id is already present is
replaced, so measuring again does not grow the file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
LATEST = ROOT / "benchmarks" / "e2e" / "results" / "latest.json"
TRAJECTORY = ROOT / "BENCH_e2e.json"
SCHEMA = "repro.bench-e2e-trajectory/v1"
#: where fig3's host time goes: the three phases, the string generator's
#: call count, the db layer's own time and the page touches behind it
FIG3_TRACED = (
    "tpcc.load.incl_s", "tpcc.derive.incl_s", "tpcc.run.incl_s",
    "tpcc.astring.calls", "db.self_s", "db.buffer.get.calls",
)


def row_from(results: dict[str, Any], row_id: str, note: str) -> dict[str, Any]:
    """One trajectory row from a results file of ``run.py``."""
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in definitions["workloads"]]
    metrics = [metric["name"] for metric in definitions["end_to_end"]]
    if results.get("smoke"):
        raise ValueError("smoke-size results do not go into the trajectory")
    workloads: dict[str, Any] = {}
    for name in names:
        record = results["workloads"].get(name)
        if record is None or "end_to_end" not in record or "per_layer" not in record:
            raise ValueError(f"{name}: need a full run (all workloads, both modes)")
        if record["failures"]:
            raise ValueError(f"{name}: the run failed its checks: {record['failures']}")
        workloads[name] = {
            **{metric: round(record["end_to_end"][metric]["median"], 4) for metric in metrics},
            "reps": record["reps"],
            "sim_fingerprint": record["sim_fingerprint"],
        }
    workloads["fig3"]["traced"] = {
        key: round(results["workloads"]["fig3"]["per_layer"][key], 4) for key in FIG3_TRACED
    }
    return {"id": row_id, "note": note, "workloads": workloads}


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    row = row_from(json.loads(LATEST.read_text()), argv[0], argv[1] if len(argv) > 1 else "")
    document: dict[str, Any] = (
        json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists()
        else {"schema": SCHEMA, "rows": []}
    )
    document["rows"] = [kept for kept in document["rows"] if kept["id"] != row["id"]] + [row]
    TRAJECTORY.write_text(json.dumps(document, indent=2) + "\n")
    print(f"{TRAJECTORY.name}: {len(document['rows'])} rows, wrote {row['id']!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
