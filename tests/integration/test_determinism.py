"""Determinism regression: fixed-seed mini TPC-C on the FTL, pinned exactly.

A full database stack (buffer manager, heap tables, B-trees) drives a
page-mapping FTL on a deliberately small device, so GC runs repeatedly
under real transactional traffic.  The engine-stats snapshot — erase and
copyback counts, victim valid-page totals, per-die wear and the digest of
the final logical-to-physical mapping — is asserted against pinned values.

This is the tripwire for future performance work: any "optimisation" that
silently changes victim choice, GC timing or write placement fails here
before it can contaminate the paper's reproduction numbers (Fig. 2/3).
A deliberate change to the modelled engine (what a transaction touches,
what a touch costs) regenerates the values, and its CHANGES.md entry
lists each one as old -> new.
"""

from repro.db import Database
from repro.flash import FlashGeometry, instant_timing
from repro.tpcc import Driver, load_database, tiny_scale
from tests.mapping.equivalence_workloads import engine_snapshot

GOLDEN = {
    "gc_erases": 99,
    "gc_copybacks": 170,
    "gc_reads": 0,
    "gc_programs": 0,
    "gc_victim_valid_pages": 170,
    "wl_moves": 0,
    "wl_erases": 0,
    "erase_counts_per_die": [25, 25, 24, 25],
    "free_blocks_per_die": [3, 3, 3, 3],
    "live_pages": 343,
    "final_at_us": 47230.0,
    "mapping_sha256": "5fa66a9b21fc5db0c9f48bbd1c70cc56402ea14ad7a733db6f51c539d1122bfa",
    "host_reads": 2717,
    "host_writes": 4584,
}


def small_ftl_geometry():
    """4 dies x 16 blocks: small enough that 600 transactions churn GC."""
    return FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=1,
        planes_per_die=1,
        blocks_per_plane=16,
        pages_per_block=32,
        page_size=2048,
        oob_size=64,
        max_pe_cycles=1_000_000,
    )


def test_tpcc_on_ftl_matches_seed_snapshot():
    db = Database.on_block_device(
        geometry=small_ftl_geometry(),
        timing=instant_timing(),
        ftl="page",
        gc_policy="greedy",
        overprovision=0.4,
        buffer_pages=32,
    )
    scale = tiny_scale()
    load_database(db, scale, seed=0)
    Driver(db, scale, terminals=4, seed=13).run(num_transactions=600)

    snapshot = engine_snapshot(db.ftl.engine, db.ftl.device.clock.now)
    snapshot["host_reads"] = db.ftl.stats.host_reads
    snapshot["host_writes"] = db.ftl.stats.host_writes

    # the run must actually have exercised GC to pin anything useful
    assert snapshot["gc_erases"] > 0

    diverged = {
        key: (snapshot[key], want)
        for key, want in GOLDEN.items()
        if snapshot[key] != want
    }
    assert not diverged, f"simulated behaviour changed vs. the pinned snapshot: {diverged}"

    db.ftl.check_consistency()
