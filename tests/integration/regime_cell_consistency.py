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

It is also the GC-active cell host-time and memory changes are judged on,
so under GitHub Actions the test appends the cell's host seconds, the
process's peak RSS and the sha256 of ``result.metrics()`` to the job
summary (``$GITHUB_STEP_SUMMARY``).  Those are reported, never asserted.
"""

import hashlib
import json
import os
import resource
import time
from dataclasses import replace

from repro.bench import run_tpcc_experiment, tpcc_experiment
from repro.bench.experiment import derive_method_placement
from repro.flash import paper_geometry


def test_regions_cell_on_small_blocks_ends_consistent():
    started = time.perf_counter()
    base = replace(
        tpcc_experiment("fig3.quick"), geometry=paper_geometry(12, 8), num_transactions=3000
    )
    placement = derive_method_placement(
        base, budget_transactions=3000, profile_transactions=3000
    )
    # result() runs the store's check_consistency() and raises on a violation
    result = run_tpcc_experiment(replace(base, name="regions", placement=placement))
    assert result.storage["gc_erases"] > 0  # the cell is GC-active, or it guards nothing
    _summarise(time.perf_counter() - started, result.metrics())


def _summarise(host_s, metrics):
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    digest = hashlib.sha256(json.dumps(metrics, sort_keys=True).encode()).hexdigest()
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    with open(path, "a", encoding="utf-8") as summary:
        summary.write(
            "### fig3 regions cell, small blocks (reported, not gated)\n\n"
            "| host s | peak RSS MiB | sha256 of result.metrics() |\n"
            "|---|---|---|\n"
            f"| {host_s:.2f} | {peak_mib:.1f} | `{digest}` |\n"
        )
