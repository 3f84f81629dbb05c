"""Ablation: the placement advisor reproduces the paper's methodology.

The authors built Figure 2 by hand: "we have divided database objects of
TPC-C based on their I/O properties into 6 regions. Further we have
distributed 64 dies ... based on sizes of objects and their I/O rate."
:func:`repro.core.advisor.suggest_placement` mechanises exactly that —
cluster by update density, allocate dies by I/O rate with a size-driven
capacity repair.  This bench profiles TPC-C, runs the advisor, and checks
the advised placement against the paper's qualitative groupings.
"""

from conftest import bench_mode, run_once

from repro.bench import profile_objects, render_series, save_report, tpcc_experiment
from repro.core import suggest_placement
from repro.mapping import die_reserve_blocks


def profile_and_advise():
    config = tpcc_experiment(f"advisor.{bench_mode()}")
    stats, __ = profile_objects(config)
    geometry = config.geometry
    safe_per_die = (geometry.blocks_per_die - die_reserve_blocks()) * geometry.pages_per_block
    placement = suggest_placement(
        stats,
        total_dies=geometry.dies,
        max_regions=6,
        name="advised",
        safe_pages_per_die=safe_per_die,
        headroom=1.8,
    )
    return stats, placement


def test_advisor_placement(benchmark):
    stats, placement = run_once(benchmark, profile_and_advise)

    assert placement.total_dies == 64
    assert 2 <= len(placement.specs) <= 6
    # every profiled object is placed exactly once
    assert sorted(placement.objects()) == sorted(s.name for s in stats)

    # qualitative agreement with the paper's groupings:
    # scorching WAREHOUSE/DISTRICT never share a region with cold ITEM
    assert placement.region_of("WAREHOUSE") != placement.region_of("ITEM")
    assert placement.region_of("DISTRICT") != placement.region_of("ITEM")
    # the append-only stream is separated from the scorching row updates
    assert placement.region_of("ORDERLINE") != placement.region_of("WAREHOUSE")

    by_stats = {s.name: s for s in stats}
    rows = []
    for spec in placement.specs:
        io = sum(by_stats[o].io_rate for o in spec.objects)
        size = sum(by_stats[o].size_pages for o in spec.objects)
        rows.append(
            [spec.config.name, spec.num_dies, size, io, "; ".join(spec.objects)]
        )
    report = render_series(
        "Advisor placement from measured TPC-C statistics (paper's method, mechanised)",
        ["region", "dies", "pages", "I/Os", "objects"],
        rows,
    )
    save_report("advisor_placement", report)
