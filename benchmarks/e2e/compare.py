"""Compare two result files of ``run.py``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, B ÷ A with its
base, and a verdict from the bound ``BENCHMARK.json`` stores for the
metric:

* ``worse``      B's median is worse than A's by more than the bound;
* ``better``     every repetition of B reads better than every one of A;
* ``unresolved`` neither, and the min–max ranges of the two sides overlap
                 by more than the bound (the noise is wider than the bound,
                 so "no change" cannot be claimed);
* ``unchanged``  otherwise.

Per-layer metrics have no bound and are listed with their ratio only.
Exits non-zero on any ``worse`` row, on a ``sim_fingerprint`` mismatch
between runs of the same seed, on a failed run, and on smoke-size files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict[str, float], b: dict[str, float], better: str, bound: float) -> str:
    """Classify B against A; ``a``/``b`` carry ``median``, ``min``, ``max``."""
    if a["median"] == b["median"]:
        return "unchanged"
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"])
    worse_by = sign * (b["median"] - a["median"]) / base
    if worse_by > bound:
        return "worse"
    if (b["max"] < a["min"]) if better == "lower" else (b["min"] > a["max"]):
        return "better"
    overlap = min(a["max"], b["max"]) - max(a["min"], b["min"])
    return "unresolved" if overlap / base > bound else "unchanged"


def load(path: str) -> dict[str, Any]:
    results = json.loads(Path(path).read_text())
    if results.get("smoke"):
        sys.exit(f"error: {path} holds smoke-size results; they are not comparable")
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    a_all, b_all = load(argv[0]), load(argv[1])
    definitions = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = 0
    for name in a_all["workloads"]:
        a, b = a_all["workloads"][name], b_all["workloads"].get(name)
        if b is None:
            print(f"{name}: only in {argv[0]}")
            continue
        print(f"\n== {name} ==")
        for side, record in ((argv[0], a), (argv[1], b)):
            for failure in record["failures"]:
                print(f"  FAILED in {side}: {failure}")
                problems += 1
        if a["seed"] == b["seed"] and a["sim_fingerprint"] != b["sim_fingerprint"]:
            print(f"  sim_fingerprint MISMATCH: {a['sim_fingerprint']} vs {b['sim_fingerprint']}")
            problems += 1
        for metric in definitions["end_to_end"]:
            key = metric["name"]
            if key not in a.get("end_to_end", {}) or key not in b.get("end_to_end", {}):
                continue
            row_a, row_b = a["end_to_end"][key], b["end_to_end"][key]
            outcome = verdict(row_a, row_b, metric["better"], metric["bound"])
            problems += outcome == "worse"
            print(f"  {key:26s} {row_a['median']:14.4f} -> {row_b['median']:14.4f} {metric['unit']:10s}"
                  f" x{row_b['median'] / row_a['median']:.4f} of {row_a['median']:.4f}"
                  f"  bound {metric['bound']:.0%}  {outcome}")
        for metric in definitions["per_layer"]:
            key = metric["name"]
            if key not in a.get("per_layer", {}) or key not in b.get("per_layer", {}):
                continue
            value_a, value_b = a["per_layer"][key], b["per_layer"][key]
            ratio = f"x{value_b / value_a:.4f} of {value_a:.4f}" if value_a else "(base 0)"
            print(f"  {key:26s} {value_a:14.4f} -> {value_b:14.4f} {metric['unit']:10s} {ratio}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
