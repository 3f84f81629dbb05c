"""Figure 2 — the multi-region data placement configuration for TPC-C.

Reproduces the paper's Figure 2 exactly: 6 regions over 64 dies with the
die counts 2 / 11 / 10 / 29 / 6 / 6, each region listing its database
objects.  The benchmark creates the configuration on a 64-die device,
verifies the die distribution and channel balance, and renders the table.
"""

from conftest import run_once

from repro.bench import render_series, save_report
from repro.core import NoFTLStore, figure2_placement
from repro.flash import instant_timing, paper_geometry


def build_figure2_store():
    store = NoFTLStore.create(paper_geometry(blocks_per_plane=4), timing=instant_timing())
    placement = figure2_placement(total_dies=64)
    for spec in placement.specs:
        store.create_region(spec.config, spec.num_dies)
    return store, placement


def test_fig2_configuration(benchmark):
    store, placement = run_once(benchmark, build_figure2_store)

    # the paper's exact die distribution
    counts = [spec.num_dies for spec in placement.specs]
    assert counts == [2, 11, 10, 29, 6, 6]
    assert sum(counts) == 64
    assert not store.free_dies()

    # regions own disjoint die sets
    owned = [d for r in store.regions() for d in r.dies]
    assert len(owned) == len(set(owned)) == 64

    # large regions span all four channels for I/O parallelism
    for spec in placement.specs:
        region = store.region(spec.config.name)
        if spec.num_dies >= 4:
            assert len(region.channels_used()) == 4

    rows = []
    for index, spec in enumerate(placement.specs):
        region = store.region(spec.config.name)
        rows.append(
            [
                index,
                spec.config.name,
                "; ".join(spec.objects),
                spec.num_dies,
                "ch" + ",".join(str(c) for c in sorted(region.channels_used())),
            ]
        )
    report = render_series(
        "Figure 2 - multi-region data placement configuration for TPC-C",
        ["#", "region", "DB objects", "dies", "channels"],
        rows,
    )
    save_report("fig2_configuration", report)
