"""Ablation: GC overhead vs hot/cold separation (paper Section 2, [3, 4]).

The paper's core mechanism: "the overhead of garbage collection ... is
highly dependent on the ability to separate between hot and cold data".
A synthetic two-class workload (12.5% of pages receive 90% of updates)
runs mixed in one region vs separated into per-class regions on the same
8-die device at 70% utilization.  Expected shape: separation cuts
copybacks by a large factor and erases meaningfully, raising sustained
write throughput.
"""

from conftest import bench_mode, run_once

from repro.bench import hotcold_cells, render_series, run_cells, save_report, synthetic_experiment


def run_hotcold():
    return run_cells(hotcold_cells(synthetic_experiment(f"hotcold.{bench_mode()}")), shards=1)


def test_hot_cold_separation(benchmark):
    mixed, separated = run_once(benchmark, run_hotcold)

    # the paper's direction: separation reduces GC work and lifts throughput
    assert separated.copybacks < mixed.copybacks * 0.6, (
        f"separation should cut copybacks sharply: {separated.copybacks} vs {mixed.copybacks}"
    )
    assert separated.erases <= mixed.erases
    assert separated.writes_per_second > mixed.writes_per_second

    report = render_series(
        "Hot/cold separation ablation (synthetic, 8 dies, 70% utilization)",
        ["placement", "GC copybacks", "GC erases", "WA", "writes/s"],
        [mixed.row(), separated.row()],
    )
    save_report("hot_cold_separation", report)
