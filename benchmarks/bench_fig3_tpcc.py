"""Figure 3 — traditional vs multi-region TPC-C data placement.

The paper's headline experiment (Section 3): the same TPC-C stream runs on
the same 64-die native flash device under two placements —

* **traditional**: one region over all dies, pages of all objects
  interleave in erase blocks in arrival order;
* **regions**: the paper's Figure 2 object groups, with die counts derived
  by the paper's own allocation rule ("based on sizes of objects and their
  I/O rate") applied to profiled statistics of *this* database — see
  ``derive_method_placement``.  (The paper's literal 2/11/10/29/6/6 die
  counts were fitted to their ~100-warehouse database; EXPERIMENTS.md
  discusses the difference.)

Reported rows mirror Figure 3 exactly: TPS, READ/WRITE 4 KB latency,
NewOrder/Payment/StockLevel response times, transactions, host READ/WRITE
I/Os, GC COPYBACKs, GC ERASEs.

What reproduces at laptop scale (see EXPERIMENTS.md for the full account):
the GC rows — fewer COPYBACKs and ERASEs under regions — and the read
latency direction.  The paper's +20% TPS does not: their testbed ran
GC-bound (write amplification ≈ 2.3-2.6 vs our ≈ 1.1), where GC savings
convert into throughput; `bench_hot_cold.py` demonstrates exactly that
regime in isolation.
"""

from dataclasses import replace

from conftest import bench_mode, run_once

from repro.bench import (
    derive_method_placement,
    fig3_cells,
    figure3_table,
    run_cells,
    save_report,
    tpcc_experiment,
)
from repro.core import traditional_placement


def run_fig3():
    config = tpcc_experiment(f"fig3.{bench_mode()}")
    placement = derive_method_placement(config, config.num_transactions)
    cells = fig3_cells(
        replace(config, name="traditional", placement=traditional_placement(64)),
        replace(config, name="regions", placement=placement),
    )
    traditional, regions = run_cells(cells, shards=1)
    return traditional, regions, placement


def test_fig3_tpcc(benchmark):
    traditional, regions, placement = run_once(benchmark, run_fig3)

    # --- the shapes that reproduce (paper: -19% copybacks, -4.3% erases) ---
    assert regions.row("gc_copybacks") < traditional.row("gc_copybacks") * 0.85, (
        "multi-region placement must cut GC copybacks"
    )
    assert regions.row("gc_erases") <= traditional.row("gc_erases") * 1.01, (
        "multi-region placement must not erase more"
    )
    # throughput stays in the same ballpark (the paper's +20% needs a
    # GC-bound device; see module docstring and EXPERIMENTS.md)
    assert regions.row("tps") > traditional.row("tps") * 0.85

    # both configurations executed the same stream correctly
    assert regions.row("transactions") == traditional.row("transactions")

    lines = [figure3_table(traditional, regions), "", "placement derived by the paper's method:"]
    for spec in placement.specs:
        lines.append(f"  {spec.config.name:<14} {spec.num_dies:>2} dies  {'; '.join(spec.objects)}")
    lines.append("")
    lines.append("per-region detail (regions configuration):")
    for name, stats in regions.per_region.items():
        lines.append(
            f"  {name:<14} host R/W {stats['host_reads']:>8.0f}/{stats['host_writes']:>8.0f}"
            f"  GC copybacks {stats['gc_copybacks']:>7.0f}  erases {stats['gc_erases']:>6.0f}"
        )
    wa_t = traditional.row("mgmt.write_amplification")
    wa_r = regions.row("mgmt.write_amplification")
    lines.append("")
    lines.append(f"write amplification: traditional {wa_t:.3f}, regions {wa_r:.3f}")

    def victim_quality(result):
        erases = result.row("gc_erases")
        return result.row("mgmt.gc_victim_valid_pages") / erases if erases else 0.0

    lines.append(
        "live pages per GC victim (hot/cold mixing measure): "
        f"traditional {victim_quality(traditional):.2f}, regions {victim_quality(regions):.2f}"
    )
    save_report("fig3_tpcc", "\n".join(lines))
