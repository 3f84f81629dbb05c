"""Integration tests validating the NoFTL architecture wiring (Figure 1).

Figure 1's chain: Buffer Manager -> Storage Manager (address translation,
out-of-place updates, flushers) -> Native Flash Interface (read/program
page, erase block, copyback, page metadata) -> flash.  These tests drive
the whole stack through the public API and check that each layer actually
participated.
"""

import pytest

from repro.core import RegionConfig, figure2_placement, traditional_placement
from repro.db import Database
from repro.flash import FlashGeometry, TimingModel
from repro.tpcc import Driver, load_database, tiny_scale


def geometry():
    return FlashGeometry(
        channels=4,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=48,
        pages_per_block=32,
        page_size=2048,
        oob_size=64,
        max_pe_cycles=1_000_000,
    )


class TestNoFTLStack:
    def test_ddl_to_flash_roundtrip(self):
        """The paper's Section 2 DDL drives real flash commands."""
        db = Database.on_native_flash(geometry=geometry(), buffer_pages=32)
        db.execute_script(
            """
            CREATE REGION rgHotTbl (MAX_CHIPS=4, MAX_CHANNELS=4, DIES=4);
            CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT SIZE 64K);
            CREATE TABLE T (t_id NUMBER(3), payload CHAR(64)) TABLESPACE tsHotTbl
            """
        )
        table = db.table("T")
        t = 0.0
        rids = []
        for i in range(200):
            rid, t = table.insert((i, f"row {i}"), t)
            rids.append(rid)
        t = db.checkpoint(t)
        # flash-level evidence: pages were programmed on the region's dies
        region = db.store.region("rgHotTbl")
        programs = sum(db.device.stats.programs_per_die[d] for d in region.dies)
        assert programs > 0
        other = sum(db.device.stats.programs_per_die[d] for d in range(db.device.geometry.dies) if d not in region.dies and d not in db.store.region("rgSystem").dies)
        assert other == 0
        # page metadata carries logical identity (native interface feature)
        die = region.dies[0]
        block = next(
            b for b in range(db.device.geometry.blocks_per_die)
            if db.device.dies[die].write_pointer(b) > 0
        )
        meta, __, __ = db.device.read_metadata(die, block, 0, t)
        assert meta is not None and meta.lpn is not None

    def test_out_of_place_updates_visible_in_erase_counts(self):
        db = Database.on_native_flash(
            geometry=geometry(), buffer_pages=16, flusher_interval=8
        )
        db.execute("CREATE REGION rg (DIES=2)")
        db.execute("CREATE TABLESPACE ts (REGION=rg)")
        db.execute("CREATE TABLE t (a INT, b CHAR(200)) TABLESPACE ts")
        table = db.table("t")
        t = 0.0
        rids = []
        for i in range(300):
            rid, t = table.insert((i, "x"), t)
            rids.append(rid)
        # update a working set far larger than the buffer: every update
        # forces a miss plus a dirty write-back, filling the region's dies.
        # GC starts when a die is down to 2 free blocks, so the write-backs
        # must outgrow the region's 2 dies (2 x 48 blocks x 32 pages =
        # 3,072 pages): keep updating until they have written it 1.5 times
        g = geometry()
        region_pages = 2 * g.blocks_per_plane * g.pages_per_block
        region = db.store.region("rg")
        round_no = 0
        while region.stats.host_writes < 1.5 * region_pages:
            for i, rid in enumerate(rids):
                rids[i], t = table.update(rid, (round_no, "x"), t)
            round_no += 1
        assert region.stats.gc_erases > 0
        assert db.device.total_erase_count() > 0
        db.store.check_consistency()

    def test_tpcc_runs_on_both_placements_with_identical_results(self):
        """The DBMS layers are placement-agnostic: same logical outcome."""
        outcomes = {}
        for placement in (traditional_placement(16), figure2_placement(16)):
            db = Database.on_native_flash(
                geometry=geometry(), placement=placement, buffer_pages=128
            )
            scale = tiny_scale()
            load_database(db, scale, seed=3)
            metrics = Driver(db, scale, terminals=4, seed=3).run(num_transactions=150)
            counts = {
                kind: acc.count for kind, acc in metrics.per_kind.items()
            }
            outcomes[placement.name] = (
                counts,
                db.table("ORDER").row_count,
                db.table("NEW_ORDER").row_count,
                metrics.aborted,
            )
            db.store.check_consistency()
        assert outcomes["traditional"] == outcomes["figure2"]


class TestBlockDeviceStack:
    def test_same_dbms_runs_on_ftl(self):
        db = Database.on_block_device(
            geometry=geometry(), overprovision=0.3, buffer_pages=128
        )
        scale = tiny_scale()
        load_database(db, scale, seed=5)
        metrics = Driver(db, scale, terminals=4, seed=5).run(num_transactions=100)
        assert metrics.transactions == 100
        assert db.ftl.stats.host_writes > 0
        db.ftl.check_consistency()

    def test_dftl_variant(self):
        db = Database.on_block_device(
            geometry=geometry(), ftl="dftl", cmt_entries=16, overprovision=0.3, buffer_pages=32
        )
        db.execute("CREATE TABLE t (a INT, b CHAR(500))")
        table = db.table("t")
        t = 0.0
        for i in range(600):
            __, t = table.insert((i, "p"), t)
        t = db.checkpoint(t)
        assert db.ftl.stats.trans_writes > 0  # limited device RAM was exercised


class TestGlobalWearLevelling:
    def test_wear_divergence_triggers_die_swap_end_to_end(self):
        db = Database.on_native_flash(
            geometry=geometry(), buffer_pages=16, global_wl_threshold=20, flusher_interval=8
        )
        db.execute("CREATE REGION rgHot (DIES=2)")
        db.execute("CREATE REGION rgCold (DIES=2)")
        db.execute("CREATE TABLESPACE tsHot (REGION=rgHot)")
        db.execute("CREATE TABLESPACE tsCold (REGION=rgCold)")
        db.execute("CREATE TABLE hot (a INT, b CHAR(200)) TABLESPACE tsHot")
        db.execute("CREATE TABLE cold (a INT, b CHAR(200)) TABLESPACE tsCold")
        t = 0.0
        cold_table = db.table("cold")
        for i in range(50):
            __, t = cold_table.insert((i, "c"), t)
        t = db.checkpoint(t)
        hot_table = db.table("hot")
        hot_rids = []
        for i in range(200):
            rid, t = hot_table.insert((i, "h"), t)
            hot_rids.append(rid)
        for round_no in range(120):
            for i, rid in enumerate(hot_rids):
                hot_rids[i], t = hot_table.update(rid, (round_no, "h"), t)
        t = db.store.global_wear_level(t)
        assert db.store.wl_swaps >= 1
        # all data still readable
        for __, row, t in cold_table.scan(t):
            assert row[1] == "c"
        db.store.check_consistency()
