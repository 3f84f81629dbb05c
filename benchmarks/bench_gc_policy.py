"""Ablation: GC victim-selection policy (greedy vs cost-benefit).

DESIGN.md design choice 1.  Under mixed hot/cold traffic, cost-benefit
(age-weighted) victim selection avoids repeatedly collecting young hot
blocks whose remaining pages are about to die anyway; greedy is optimal
for uniform traffic.  We run the mixed-placement synthetic workload under
both policies and report GC work.
"""

from dataclasses import replace

from conftest import bench_mode, run_once

from repro.bench import render_series, run_noftl_synthetic, save_report, synthetic_experiment


def sweep():
    base = synthetic_experiment(f"gc_policy.{bench_mode()}")
    rows = []
    results = {}
    for policy in ("greedy", "cost_benefit"):
        result = run_noftl_synthetic(replace(base, gc_policy=policy), separated=False)
        results[policy] = result
        row = result.row()
        row[0] = policy
        rows.append(row)
    return rows, results


def test_gc_policy(benchmark):
    rows, results = run_once(benchmark, sweep)

    greedy = results["greedy"]
    cost_benefit = results["cost_benefit"]
    # both policies keep the device functional and within sane WA bounds
    assert greedy.erases > 0 and cost_benefit.erases > 0
    assert 1.0 <= greedy.write_amplification < 5.0
    assert 1.0 <= cost_benefit.write_amplification < 5.0
    # the policies must actually behave differently under skew
    assert greedy.copybacks != cost_benefit.copybacks

    report = render_series(
        "GC policy ablation (mixed hot/cold placement)",
        ["policy", "GC copybacks", "GC erases", "WA", "writes/s"],
        rows,
    )
    save_report("gc_policy", report)
