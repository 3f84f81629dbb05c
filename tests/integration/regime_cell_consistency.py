"""ROADMAP 1(c)(i)'s cell: the regions arm of fig3 on a small-block geometry.

    PYTHONPATH=src python -m pytest tests/integration/regime_cell_consistency.py -q

``fig3.quick`` on ``paper_geometry(12, 8)`` (24 blocks/die x 8 pages) with a
placement derived from 3,000 profiled transactions puts ``rgOrderLine`` —
append-heavy, group frontiers — on dies whose GC erases a block soon after
it fills.  Before the frontier rule (a slot holds a block only while that
block is OPEN) the cell's end-of-run ``check_consistency()`` raised
``BookkeepingError: die 2: free blocks in candidate set``.

About 5 s, so the file name keeps it out of tier-1 collection; the
``fault-matrix`` CI job runs it.  The cheap guards of the same rule are
``tests/mapping/test_group_frontiers.py::TestFrontierRule`` and
``tests/property/test_engine_properties.py``.
"""

from dataclasses import replace

from repro.bench import run_tpcc_experiment, tpcc_experiment
from repro.bench.experiment import derive_method_placement
from repro.flash import paper_geometry


def test_regions_cell_on_small_blocks_ends_consistent():
    base = replace(
        tpcc_experiment("fig3.quick"), geometry=paper_geometry(12, 8), num_transactions=3000
    )
    placement = derive_method_placement(
        base, budget_transactions=3000, profile_transactions=3000
    )
    # result() runs the store's check_consistency() and raises on a violation
    result = run_tpcc_experiment(replace(base, name="regions", placement=placement))
    assert result.storage["gc_erases"] > 0  # the cell is GC-active, or it guards nothing
