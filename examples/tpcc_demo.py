"""TPC-C on two placements: a pocket-sized version of the paper's Figure 3.

Loads a small TPC-C database twice — once with traditional single-pool
placement, once with the paper's 6-region Figure 2 configuration — runs
the same transaction stream against each, and prints the comparison.

This is the quick demo; the calibrated reproduction lives in
benchmarks/bench_fig3_tpcc.py (see EXPERIMENTS.md for recorded results).

Run:  python examples/tpcc_demo.py            (~1-2 minutes)
"""

from dataclasses import replace

from repro.bench import figure3_table, run_tpcc_experiment, tpcc_experiment
from repro.core import figure2_placement, traditional_placement


def main() -> None:
    base = tpcc_experiment("fig3.quick")  # what `repro fig3` runs at its defaults
    print("running traditional placement ...")
    traditional = run_tpcc_experiment(
        replace(base, name="traditional", placement=traditional_placement(64))
    )
    print("running figure-2 multi-region placement ...")
    regions = run_tpcc_experiment(
        replace(base, name="figure2", placement=figure2_placement(64))
    )
    print()
    print(figure3_table(traditional, regions))
    print("\nper-region view (figure2):")
    for name, stats in regions.per_region.items():
        print(
            f"  {name:14} host R/W = {stats['host_reads']:7.0f}/{stats['host_writes']:7.0f}"
            f"   GC copybacks = {stats['gc_copybacks']:6.0f}   erases = {stats['gc_erases']:5.0f}"
        )


if __name__ == "__main__":
    main()
