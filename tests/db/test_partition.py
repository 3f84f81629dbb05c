"""Tests for partitioned tables (placement below the object level)."""

import pytest

from repro.core import RegionConfig
from repro.db import Database, Schema, char_col, int_col, make_rid, split_rid
from repro.db.partition import (
    HashPartition,
    PartitionError,
    PartitionedRID,
    RangePartition,
)
from repro.flash import FlashGeometry, instant_timing

from tests.db.conftest import page_touches


def make_db():
    geometry = FlashGeometry(
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
    db = Database.on_native_flash(
        geometry=geometry, timing=instant_timing(), buffer_pages=64, system_dies=2
    )
    db.execute("CREATE REGION rgHot (DIES=2)")
    db.execute("CREATE REGION rgCold (DIES=4)")
    return db


def schema():
    return Schema([int_col("id"), char_col("label", 8), int_col("age")])


class TestSchemes:
    def test_range_routing(self):
        scheme = RangePartition("id", [100, 200])
        assert scheme.partitions == 3
        assert scheme.route_value(5) == 0
        assert scheme.route_value(100) == 1
        assert scheme.route_value(199) == 1
        assert scheme.route_value(200) == 2

    def test_range_validation(self):
        with pytest.raises(PartitionError):
            RangePartition("id", [])
        with pytest.raises(PartitionError):
            RangePartition("id", [5, 5])
        with pytest.raises(PartitionError):
            RangePartition("id", [9, 3])

    def test_hash_routing_stable(self):
        scheme = HashPartition("label", 4)
        assert scheme.route_value("alpha") == scheme.route_value("alpha")
        assert 0 <= scheme.route_value("anything") < 4
        assert scheme.route_value(13) == 1

    def test_hash_needs_two_partitions(self):
        with pytest.raises(PartitionError):
            HashPartition("id", 1)


class TestPartitionedTable:
    def build(self, db):
        return db.create_partitioned_table(
            "events",
            schema(),
            RangePartition("id", [100]),
            regions=["rgCold", "rgHot"],
            index_defs=[("pk", ["id"], True), ("label", ["label"], False)],
        )

    def test_rows_route_to_their_partitions(self):
        db = make_db()
        table = self.build(db)
        t = 0.0
        prid_cold, t = table.insert((5, "old", 1), t)
        prid_hot, t = table.insert((150, "new", 2), t)
        assert prid_cold.partition == 0
        assert prid_hot.partition == 1
        assert table.partition_row_counts() == [1, 1]

    def test_partitions_live_in_their_regions(self):
        db = make_db()
        table = self.build(db)
        t = 0.0
        for i in range(30):
            __, t = table.insert((i, "old", i), t)
        for i in range(100, 130):
            __, t = table.insert((i, "new", i), t)
        t = db.checkpoint(t)
        assert db.store.region("rgCold").stats.host_writes > 0
        assert db.store.region("rgHot").stats.host_writes > 0
        assert db.catalog.tablespace("ts_events#p0").region == "rgCold"
        assert db.catalog.tablespace("ts_events#p1").region == "rgHot"

    def test_routed_lookup_touches_one_partition(self):
        db = make_db()
        table = self.build(db)
        t = 0.0
        table.insert((5, "old", 1), t)
        table.insert((150, "new", 2), t)
        row, __ = table.lookup("pk", (150,), 0.0)
        assert row == (150, "new", 2)
        assert table._route_by_key("pk", (150,)) == 1
        # non-partition-column index fans out
        assert table._route_by_key("label", ("new",)) is None
        rows, __ = table.lookup_all("label", ("new",), 0.0)
        assert [r for __, r in rows] == [(150, "new", 2)]

    def test_update_moves_rows_across_partitions(self):
        db = make_db()
        table = self.build(db)
        prid, t = table.insert((50, "x", 0), 0.0)
        assert prid.partition == 0
        prid, t = table.update_columns(prid, {"id": 500}, t)
        assert prid.partition == 1
        assert table.partition_row_counts() == [0, 1]
        assert table.read(prid, t)[0] == (500, "x", 0)
        # the pk index followed the move
        assert table.lookup("pk", (50,), t)[0] is None
        assert table.lookup("pk", (500,), t)[0] == (500, "x", 0)

    def test_in_place_update_keeps_partition(self):
        db = make_db()
        table = self.build(db)
        prid, t = table.insert((50, "x", 0), 0.0)
        prid2, t = table.update_columns(prid, {"age": 9}, t)
        assert prid2.partition == prid.partition

    def test_update_within_a_partition_touches_the_row_page_once(self):
        db = make_db()
        table = self.build(db)
        prid, t = table.insert((50, "x", 0), 0.0)
        part = table.parts[prid.partition]
        for changes in ({"age": 9}, {"id": 60, "label": "y"}):  # the second stays in p0
            touched = page_touches(table.update_columns, prid, changes, t)
            # the partition's indexes share its tablespace: count the row's page
            page_no = split_rid(prid.rid)[0]
            assert touched.count((part.info.heap.space_id, page_no)) == 1
        assert table.read(prid, t)[0] == (60, "y", 9)
        assert table.lookup("pk", (60,), t)[0] == (60, "y", 9)

    def test_delete(self):
        db = make_db()
        table = self.build(db)
        prid, t = table.insert((50, "x", 0), 0.0)
        t = table.delete(prid, t)
        assert table.row_count == 0

    def test_scan_covers_all_partitions(self):
        db = make_db()
        table = self.build(db)
        t = 0.0
        expected = set()
        for i in (1, 99, 100, 250):
            __, t = table.insert((i, "r", 0), t)
            expected.add(i)
        assert {row[0] for __, row, ___ in table.scan(t)} == expected

    def test_region_hint_count_validated(self):
        db = make_db()
        with pytest.raises(PartitionError):
            db.create_partitioned_table(
                "bad", schema(), RangePartition("id", [10]), regions=["rgHot"]
            )

    def test_unknown_partition_column_rejected(self):
        db = make_db()
        from repro.db import SchemaError

        with pytest.raises(SchemaError):
            db.create_partitioned_table("bad2", schema(), RangePartition("nope", [10]))

    def test_handle_lookup(self):
        db = make_db()
        table = self.build(db)
        assert db.partitioned_table("events") is table
        from repro.db import DDLError

        with pytest.raises(DDLError):
            db.partitioned_table("missing")

    def test_partitioned_rid_ordering(self):
        assert PartitionedRID(0, make_rid(5, 1)) < PartitionedRID(1, make_rid(0, 0))
        assert PartitionedRID(1, make_rid(0, 7)) < PartitionedRID(1, make_rid(1, 0))
        assert str(PartitionedRID(1, make_rid(5, 2))) == "p1/5:2"
