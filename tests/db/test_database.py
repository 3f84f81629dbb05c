"""Integration tests for the Database facade and DDL execution."""

import pytest

from repro.core import RegionError, figure2_placement, traditional_placement
from repro.db import Database, DDLError, Schema, char_col, int_col
from repro.flash import FlashGeometry, instant_timing
from repro.obs import combined_management_stats


def tiny_geometry():
    return FlashGeometry(
        channels=2,
        chips_per_channel=2,
        dies_per_chip=2,
        planes_per_die=1,
        blocks_per_plane=32,
        pages_per_block=16,
        page_size=512,
        oob_size=16,
        max_pe_cycles=100_000,
    )


def make_db(**kwargs):
    return Database.on_native_flash(
        geometry=tiny_geometry(), timing=instant_timing(), buffer_pages=64, **kwargs
    )


class TestPaperDDLExample:
    def test_section2_example_verbatim(self):
        db = make_db()
        db.execute("CREATE REGION rgHotTbl (MAX_CHIPS=2, MAX_CHANNELS=2, MAX_SIZE=128K, DIES=2)")
        db.execute("CREATE TABLESPACE tsHotTbl (REGION=rgHotTbl, EXTENT SIZE 8K)")
        db.execute("CREATE TABLE T (t_id NUMBER(3)) TABLESPACE tsHotTbl")
        table = db.table("T")
        rid, t = table.insert((7,), 0.0)
        assert table.read(rid, t)[0] == (7,)
        region = db.store.region("rgHotTbl")
        assert region.stats.host_writes >= 0  # traffic lands once flushed
        db.checkpoint(t)
        assert region.stats.host_writes > 0

    def test_execute_script(self):
        db = make_db()
        db.execute_script(
            """
            CREATE REGION rg (DIES=2);
            CREATE TABLESPACE ts (REGION=rg, EXTENT SIZE 8K);
            CREATE TABLE t (a INT, b CHAR(8)) TABLESPACE ts;
            CREATE UNIQUE INDEX t_pk ON t (a) TABLESPACE ts;
            """
        )
        table = db.table("t")
        table.insert((1, "one"), 0.0)
        row, __ = table.lookup("t_pk", (1,), 0.0)
        assert row == (1, "one")


def catalog_state(db):
    """Every name the catalog and the region manager know, for before/after checks."""
    return (
        sorted(t.name for t in db.catalog.tables()),
        sorted(ts.name for ts in db.catalog.tablespaces()),
        sorted(i.name for i in db.catalog.indexes()),
        [r.name for r in db.store.regions()],
    )


class TestDDLErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "GRANT ALL ON t TO alice",
            "INSERT INTO t VALUES (7)",
            "SELECT * FROM t",
            "UPDATE t SET a = 8 WHERE a = 7",
            "DELETE FROM t WHERE a = 7",
        ],
        ids=["grant", "insert", "select", "update", "delete"],
    )
    def test_unsupported_statement(self, sql):
        db = make_db()
        db.execute("CREATE TABLE t (a INT)")
        before = catalog_state(db)
        with pytest.raises(DDLError, match="unsupported statement"):
            db.execute(sql)
        assert catalog_state(db) == before
        assert db.table("t").row_count == 0

    @pytest.mark.parametrize("dies", ["0", "-1"])
    def test_region_needs_a_die(self, dies):
        db = make_db()
        before = catalog_state(db)
        with pytest.raises(RegionError, match="at least one die"):
            db.execute(f"CREATE REGION rg (DIES={dies})")
        assert catalog_state(db) == before

    @pytest.mark.parametrize("extent", ["0K", "100"])
    def test_extent_size_must_be_whole_pages(self, extent):
        db = make_db()
        before = catalog_state(db)
        with pytest.raises(DDLError, match="EXTENT SIZE"):
            db.execute(f"CREATE TABLESPACE ts (EXTENT SIZE {extent})")
        assert catalog_state(db) == before

    def test_extent_size_in_whole_pages_accepted(self):
        db = make_db()
        db.execute("CREATE TABLESPACE ts (EXTENT SIZE 8K)")
        assert db.catalog.tablespace("ts").extent_pages == 8 * 1024 // 512

    def test_region_ddl_requires_native_flash(self):
        db = Database.on_block_device(
            geometry=tiny_geometry(), timing=instant_timing(), overprovision=0.3
        )
        with pytest.raises(DDLError):
            db.execute("CREATE REGION rg (DIES=2)")

    def test_bad_column_type(self):
        db = make_db()
        with pytest.raises(DDLError):
            db.execute("CREATE TABLE t (a BLOB)")


class TestPlacementIntegration:
    def test_figure2_placement_routes_objects(self):
        db = Database.on_native_flash(
            geometry=tiny_geometry(),
            placement=figure2_placement(total_dies=8),
            timing=instant_timing(),
            buffer_pages=64,
        )
        schema = Schema([int_col("id")])
        db.create_table("STOCK", schema)
        db.create_table("ORDERLINE", schema)
        stock_space = db.catalog.tablespace("ts_STOCK")
        ol_space = db.catalog.tablespace("ts_ORDERLINE")
        assert stock_space.region == "rgStock"
        assert ol_space.region == "rgOrderLine"

    def test_unplaced_object_falls_back(self):
        db = Database.on_native_flash(
            geometry=tiny_geometry(),
            placement=figure2_placement(total_dies=8),
            timing=instant_timing(),
            buffer_pages=64,
        )
        db.create_table("SOMETHING_ELSE", Schema([int_col("x")]))
        ts = db.catalog.tablespace("ts_SOMETHING_ELSE")
        assert ts.region == "rgMeta"  # first spec of figure2

    def test_placement_must_fit_device(self):
        with pytest.raises(RegionError):
            Database.on_native_flash(
                geometry=tiny_geometry(),
                placement=traditional_placement(total_dies=100),
                timing=instant_timing(),
            )


class TestTablesAndIndexes:
    def test_index_maintained_on_update_and_delete(self):
        db = make_db()
        db.execute("CREATE TABLE t (a INT, b CHAR(8))")
        db.create_index("t_a", "t", ["a"], unique=True)
        table = db.table("t")
        rid, t = table.insert((1, "x"), 0.0)
        rid, t = table.update(rid, (2, "x"), t)
        assert table.lookup("t_a", (1,), t)[0] is None
        assert table.lookup("t_a", (2,), t)[0] == (2, "x")
        t = table.delete(rid, t)
        assert table.lookup("t_a", (2,), t)[0] is None

    def test_update_columns_helper(self):
        db = make_db()
        db.execute("CREATE TABLE t (a INT, b CHAR(8), c INT)")
        table = db.table("t")
        rid, t = table.insert((1, "x", 10), 0.0)
        rid, t = table.update_columns(rid, {"c": 99}, t)
        assert table.read(rid, t)[0] == (1, "x", 99)

    def test_index_bulk_load_on_existing_rows(self):
        db = make_db()
        db.execute("CREATE TABLE t (a INT)")
        table = db.table("t")
        for i in range(50):
            table.insert((i,), 0.0)
        db.create_index("t_a", "t", ["a"])
        for probe in (0, 25, 49):
            assert table.lookup("t_a", (probe,), 0.0)[0] == (probe,)

    def test_drop_table_releases_pages(self):
        db = make_db()
        db.execute("CREATE TABLE t (a INT, b CHAR(64))")
        table = db.table("t")
        for i in range(100):
            table.insert((i, "y"), 0.0)
        space_id = db.catalog.tablespace("ts_t").space_id
        assert db.backend.allocated_pages(space_id) > 0
        db.execute("DROP TABLE t")
        assert db.backend.allocated_pages(space_id) == 0
        assert not db.catalog.has_table("t")

    def test_non_unique_secondary_index(self):
        db = make_db()
        db.execute("CREATE TABLE t (a INT, b CHAR(4))")
        db.create_index("t_b", "t", ["b"])
        table = db.table("t")
        for i in range(10):
            table.insert((i, "dup"), 0.0)
        rows, __ = table.lookup_all("t_b", ("dup",), 0.0)
        assert len(rows) == 10


class TestStatsAndMaintenance:
    def test_object_stats_reports_tables_and_indexes(self):
        db = make_db()
        db.execute("CREATE TABLE t (a INT)")
        db.create_index("t_a", "t", ["a"])
        table = db.table("t")
        t = 0.0
        for i in range(200):
            __, t = table.insert((i,), t)
        db.checkpoint(t)
        stats = {s.name: s for s in db.object_stats()}
        assert "t" in stats
        assert "t_a" in stats
        assert stats["t"].size_pages > 0
        assert stats["t"].writes > 0

    def test_checkpoint_flushes_everything(self):
        db = make_db()
        db.execute("CREATE TABLE t (a INT)")
        table = db.table("t")
        t = 0.0
        for i in range(50):
            __, t = table.insert((i,), t)
        t = db.checkpoint(t)
        writes = combined_management_stats(db.store.regions()).host_writes
        t2 = db.checkpoint(t)
        assert combined_management_stats(db.store.regions()).host_writes == writes

    def test_block_device_database_end_to_end(self):
        db = Database.on_block_device(
            geometry=tiny_geometry(),
            timing=instant_timing(),
            overprovision=0.3,
            buffer_pages=64,
        )
        db.execute("CREATE TABLE t (a INT, b CHAR(32))")
        table = db.table("t")
        rids = {}
        t = 0.0
        for i in range(300):
            rid, t = table.insert((i, f"r{i}"), t)
            rids[i] = rid
        t = db.checkpoint(t)
        for i in (0, 150, 299):
            assert table.read(rids[i], t)[0] == (i, f"r{i}")
        assert db.ftl.stats.host_writes > 0

    def test_now_property_tracks_clock(self):
        db = Database.on_native_flash(geometry=tiny_geometry(), buffer_pages=64)
        db.execute("CREATE TABLE t (a INT)")
        table = db.table("t")
        t = 0.0
        for i in range(100):
            __, t = table.insert((i,), t)
        db.checkpoint(t)
        assert db.now > 0.0
