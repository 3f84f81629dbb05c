"""Ablation: the paper's Section 1 motivation — FTL indirection overhead.

The same skewed write workload runs against four storage stacks:

1. a page-mapping FTL SSD (the black box the paper argues against);
2. a DFTL SSD with a small cached mapping table (limited on-device
   resources: translation-page traffic amplifies writes);
3. a hot/cold FTL that separates by an on-device update-frequency sketch
   (the best a knowledge-free controller can do, per [3, 4]);
4. NoFTL, one region (host-side management, no translation overhead);
5. NoFTL, hot/cold-separated regions (the paper's full proposal).

Expected shape: DFTL worst (translation I/O), plain FTL == mixed NoFTL
(same machinery), the hot/cold FTL in between, NoFTL regions best —
the paper's hierarchy of knowledge, measured.
"""

from conftest import bench_mode, run_once

from repro.bench import ftl_cells, render_series, run_cells, save_report, synthetic_experiment


def run_ftl():
    return run_cells(ftl_cells(synthetic_experiment(f"ftl.{bench_mode()}")), shards=1)


def test_ftl_vs_noftl(benchmark):
    page_ftl, dftl, hotcold, noftl_mixed, noftl_regions = run_once(benchmark, run_ftl)

    # DFTL pays translation I/O on top of GC: lowest throughput
    assert dftl.writes_per_second < page_ftl.writes_per_second
    # the on-device heuristic helps, but DBMS knowledge helps more
    assert hotcold.copybacks < page_ftl.copybacks
    assert noftl_regions.copybacks < hotcold.copybacks
    # host-side NoFTL with regions beats every FTL variant
    assert noftl_regions.writes_per_second > page_ftl.writes_per_second
    assert noftl_regions.copybacks < page_ftl.copybacks
    # mixed NoFTL == page FTL (same machinery, same knowledge)
    assert noftl_mixed.copybacks == page_ftl.copybacks

    report = render_series(
        "FTL vs NoFTL (synthetic skewed writes, 8 dies, 65% utilization)",
        ["stack", "GC copybacks", "GC erases", "WA", "writes/s"],
        [r.row() for r in (page_ftl, dftl, hotcold, noftl_mixed, noftl_regions)],
    )
    save_report("ftl_vs_noftl", report)
