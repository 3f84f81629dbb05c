"""The policy lab's main product: GC policy x workload matrix.

Every registered GC victim-selection policy (including the learned
linear scorer) runs the same workloads on the same device, and the
matrix reports the numbers the paper argues about — write amplification,
GC erases, GC copybacks — plus simulated throughput.  Workloads:

* ``uniform``  — one update class, uniform traffic: greedy's best case.
* ``hotcold``  — the canonical 90/10 hot/cold mix (mixed placement, so
  victim choice is what separates the policies).
* ``tpcc``     — the full TPC-C stack on the page-mapping FTL
  (``full`` mode only; throughput is committed transactions/s).

Sizes come from the catalogue (``repro.bench.catalogue``):
``policy_matrix.synthetic.<mode>`` and ``policy_matrix.tpcc.<mode>``.

Results go to ``BENCH_policy_matrix.json`` at the repo root.
``REPRO_BENCH_MODE=full`` scales the runs up; the CI smoke job narrows
the matrix via ``REPRO_POLICY_MATRIX_POLICIES`` /
``REPRO_POLICY_MATRIX_WORKLOADS`` (comma-separated lists).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # for conftest helpers

from conftest import bench_mode

from repro.bench import (
    HOT_COLD_CLASSES,
    ObjectClass,
    render_series,
    run_noftl_synthetic,
    run_tpcc_experiment,
    synthetic_experiment,
    tpcc_experiment,
)
from repro.policies import available_gc_policies

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_policy_matrix.json"

#: single-class uniform-update workload — no hot/cold structure at all
UNIFORM_CLASSES = (ObjectClass("uniform", space_share=1.0, traffic_share=1.0),)


def _env_list(name: str, default: list[str]) -> list[str]:
    raw = os.environ.get(name)
    if not raw:
        return default
    return [item.strip() for item in raw.split(",") if item.strip()]


def matrix_policies() -> list[str]:
    return _env_list("REPRO_POLICY_MATRIX_POLICIES", available_gc_policies())


def matrix_workloads() -> list[str]:
    default = ["uniform", "hotcold"]
    if bench_mode() == "full":
        default.append("tpcc")
    return _env_list("REPRO_POLICY_MATRIX_WORKLOADS", default)


def run_synthetic_cell(policy: str, classes, base) -> dict[str, float]:
    config = replace(base, classes=classes, gc_policy=policy)
    result = run_noftl_synthetic(config, separated=False)
    return {
        "write_amplification": round(result.write_amplification, 4),
        "erases": float(result.erases),
        "copybacks": float(result.copybacks),
        "tps": round(result.writes_per_second, 1),  # simulated host writes/s
    }


def run_tpcc_cell(policy: str, base) -> dict[str, float]:
    result = run_tpcc_experiment(replace(base, name=f"tpcc-{policy}", gc_policy=policy))
    host_writes = result.row("host_writes")
    copybacks = result.row("gc_copybacks")
    wa = 1.0 + copybacks / host_writes if host_writes else 0.0
    return {
        "write_amplification": round(wa, 4),
        "erases": float(result.row("gc_erases")),
        "copybacks": float(copybacks),
        "tps": round(result.row("tps"), 1),  # committed transactions/s
    }


def run_matrix() -> dict:
    mode = bench_mode()
    synthetic = synthetic_experiment(f"policy_matrix.synthetic.{mode}")
    tpcc = tpcc_experiment(f"policy_matrix.tpcc.{mode}")
    policies = matrix_policies()
    workloads = matrix_workloads()
    cells: dict[str, dict[str, dict[str, float]]] = {}
    for workload in workloads:
        cells[workload] = {}
        for policy in policies:
            if workload == "uniform":
                cell = run_synthetic_cell(policy, UNIFORM_CLASSES, synthetic)
            elif workload == "hotcold":
                cell = run_synthetic_cell(policy, HOT_COLD_CLASSES, synthetic)
            elif workload == "tpcc":
                cell = run_tpcc_cell(policy, tpcc)
            else:
                raise ValueError(f"unknown workload {workload!r}")
            cells[workload][policy] = cell
    result = {
        "schema": "repro.bench.policy_matrix/v1",
        "mode": mode,
        "policies": policies,
        "workloads": workloads,
        "synthetic_writes": synthetic.writes,
        "tpcc_transactions": tpcc.num_transactions if "tpcc" in workloads else 0,
        "cells": cells,
    }
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")
    return result


def render_matrix(result: dict) -> str:
    rows = []
    for workload in result["workloads"]:
        for policy in result["policies"]:
            cell = result["cells"][workload][policy]
            rows.append(
                [
                    f"{workload}/{policy}",
                    int(cell["copybacks"]),
                    int(cell["erases"]),
                    round(cell["write_amplification"], 2),
                    cell["tps"],
                ]
            )
    return render_series(
        "GC policy matrix (repro.policies registry)",
        ["workload/policy", "GC copybacks", "GC erases", "WA", "TPS"],
        rows,
    )


def test_policy_matrix(benchmark):
    from conftest import run_once

    result = run_once(benchmark, run_matrix)

    for workload, by_policy in result["cells"].items():
        for policy, cell in by_policy.items():
            label = f"{workload}/{policy}"
            assert cell["write_amplification"] >= 1.0, label
            assert cell["erases"] > 0, f"{label}: GC never ran"
            assert cell["tps"] > 0, label

    # victim selection must actually matter under skew
    hotcold = result["cells"].get("hotcold", {})
    if {"greedy", "cost_benefit"} <= hotcold.keys():
        assert hotcold["greedy"]["copybacks"] != hotcold["cost_benefit"]["copybacks"]

    assert RESULT_PATH.exists()
    print(render_matrix(result))


if __name__ == "__main__":
    out = run_matrix()
    print(render_matrix(out))
    print(f"results written to {RESULT_PATH}")
