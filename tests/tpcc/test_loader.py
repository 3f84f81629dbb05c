"""Tests for schema creation and the initial population."""

import hashlib

import pytest

from repro.obs import combined_management_stats
from repro.tpcc import INDEX_DEFS, TABLE_SCHEMAS, ScaleConfig, load_database, tiny_scale
from repro.tpcc.loader import initial_records

from repro.core import traditional_placement
from repro.db import Column, ColumnType, Database, RowCodec, Schema, SchemaError

from tests.tpcc.conftest import tpcc_geometry


class TestSchemaCreation:
    def test_all_tables_and_indexes_exist(self, tpcc_db):
        db, __ = tpcc_db
        for name in TABLE_SCHEMAS:
            assert db.catalog.has_table(name)
        for name, *_ in INDEX_DEFS:
            assert db.catalog.has_index(name)

    def test_index_tables_match(self, tpcc_db):
        db, __ = tpcc_db
        for name, table, columns, unique in INDEX_DEFS:
            info = db.catalog.index(name)
            assert info.table == table
            assert info.columns == columns
            assert info.unique == unique


class TestPopulation:
    def test_cardinalities(self, tpcc_db):
        db, scale = tpcc_db
        assert db.table("WAREHOUSE").row_count == scale.warehouses
        assert db.table("DISTRICT").row_count == scale.warehouses * scale.districts
        assert db.table("CUSTOMER").row_count == scale.customers
        assert db.table("HISTORY").row_count == scale.customers
        assert db.table("ITEM").row_count == scale.items
        assert db.table("STOCK").row_count == scale.stock_rows
        orders = scale.warehouses * scale.districts * scale.initial_orders_per_district
        assert db.table("ORDER").row_count == orders

    def test_open_orders_have_new_order_rows(self, tpcc_db):
        db, scale = tpcc_db
        expected_open = max(1, int(scale.initial_orders_per_district * 0.3))
        per_district = expected_open
        districts = scale.warehouses * scale.districts
        assert db.table("NEW_ORDER").row_count == per_district * districts

    def test_orderline_counts_match_orders(self, tpcc_db):
        db, scale = tpcc_db
        total_lines = 0
        ol_cnt_pos = db.table("ORDER").schema.position("o_ol_cnt")
        for __, row, ___ in db.table("ORDER").scan(0.0):
            total_lines += row[ol_cnt_pos]
        assert db.table("ORDERLINE").row_count == total_lines

    def test_district_next_o_id(self, tpcc_db):
        db, scale = tpcc_db
        pos = db.table("DISTRICT").schema.position("d_next_o_id")
        for __, row, ___ in db.table("DISTRICT").scan(0.0):
            assert row[pos] == scale.initial_orders_per_district + 1

    def test_customers_reachable_by_id_index(self, tpcc_db):
        db, scale = tpcc_db
        table = db.table("CUSTOMER")
        for c_id in (1, scale.customers_per_district):
            row, __ = table.lookup("C_IDX", (1, 1, c_id), 0.0)
            assert row is not None
            assert row[0] == c_id

    def test_customers_reachable_by_name_index(self, tpcc_db):
        db, scale = tpcc_db
        table = db.table("CUSTOMER")
        index = table.index("C_NAME_IDX")
        from repro.tpcc import TPCCRandom

        rng = TPCCRandom()
        last = rng.last_name(0)  # customer 1's deterministic name
        entries, __ = index.btree.range_scan(
            (1, 1, last, ""), (1, 1, last, "\x7f" * 16), 0.0
        )
        assert entries

    def test_stock_reachable_via_s_idx(self, tpcc_db):
        db, scale = tpcc_db
        row, __ = db.table("STOCK").lookup("S_IDX", (1, scale.items), 0.0)
        assert row is not None

    def test_load_lands_on_flash_after_checkpoint(self, tpcc_db):
        db, __ = tpcc_db
        assert combined_management_stats(db.store.regions()).host_writes > 0

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ScaleConfig(warehouses=0)
        with pytest.raises(ValueError):
            ScaleConfig(min_order_lines=9, max_order_lines=5)

    def test_tiny_scale_consistent(self):
        scale = tiny_scale()
        assert scale.customers == 1 * 2 * 8
        assert scale.stock_rows == 40


class _RecordingDb:
    """Stands in for a ``Database``: keeps the ``(table, record)`` stream."""

    def __init__(self):
        self.stream = []

    def table(self, name):
        return _RecordingTable(name, self.stream)

    def checkpoint(self, at):
        return at


class _RecordingTable:
    def __init__(self, name, stream):
        self.name, self.stream = name, stream
        self.schema = TABLE_SCHEMAS[name]

    def insert_record(self, record, at):
        self.stream.append((self.name, record))
        return None, at + 1.0


#: table names by the code the memo stores for them
TABLES = tuple(TABLE_SCHEMAS)


def _pairs(population):
    """The memo's two columns as ``(table, record)`` pairs."""
    codes, records = population
    return [(TABLES[code], record) for code, record in zip(codes, records, strict=True)]


def _digest(stream):
    """sha256 over ``repr`` of every ``(table, row)``, the rows decoded."""
    codecs = {name: RowCodec(schema) for name, schema in TABLE_SCHEMAS.items()}
    sha = hashlib.sha256()
    for table, record in stream:
        sha.update(repr((table, codecs[table].decode(record))).encode())
    return sha.hexdigest()


def _database():
    geometry = tpcc_geometry()  # default flash timing: the end time is real
    return Database.on_native_flash(
        geometry=geometry, placement=traditional_placement(geometry.dies), buffer_pages=64
    )


def _load():
    db = _database()
    return db, load_database(db, tiny_scale(), seed=0)


class TestInitialPopulation:
    #: sha256 over ``repr`` of every ``(table, row)`` the loader handed a
    #: ``_RecordingDb`` for ``(tiny_scale(), seed 0)`` *before* the
    #: population became a memoised stream (commit 9d5771a): 286 rows.
    #: The loader now hands it records; their rows must hash the same.
    STREAM_SHA256 = "1e074a52adceeb92e6be4f30ab9cf7ffdd7721cfe928243eda4687b40bc98610"

    def test_stream_fed_to_the_database_is_pinned(self):
        db = _RecordingDb()
        end = load_database(db, tiny_scale(), seed=0, at=10.0, create=False)
        assert len(db.stream) == 286 and end == 296.0  # time threaded through every insert
        assert _digest(db.stream) == self.STREAM_SHA256
        codes, records = initial_records(tiny_scale(), 0)
        assert [name for name, __ in db.stream] == [TABLES[code] for code in codes]
        assert all(fed is kept for (__, fed), kept in zip(db.stream, records, strict=True))

    def test_generated_once_per_scale_and_seed(self):
        first = initial_records(tiny_scale(), 0)
        assert initial_records(tiny_scale(), 0) is first
        other = initial_records(tiny_scale(), 1)
        assert _digest(_pairs(other)) != self.STREAM_SHA256
        # one entry: the other seed pushed the first population out
        again = initial_records(tiny_scale(), 0)
        assert again is not first and again == first
        assert initial_records(tiny_scale(), 0) is again

    def test_shared_value_is_immutable(self):
        population = initial_records(tiny_scale(), 0)
        assert type(population) is tuple
        codes, records = population  # two columns, no object per record
        assert type(codes) is bytes and type(records) is tuple
        assert len(codes) == len(records) == 286
        assert set(codes) == set(range(len(TABLES)))
        assert all(type(record) is bytes for record in records)  # no row tuples

    def test_heap_pages_hold_the_memo_records(self):
        memo = _pairs(initial_records(tiny_scale(), 0))
        for db, end in (_load(), _load()):  # the second load shares them too
            for name in TABLE_SCHEMAS:
                kept = [record for table, record in memo if table == name]
                heap = db.table(name).info.heap
                stored = [heap.read_record(rid, end)[0] for rid, __, ___ in heap.scan(end)]
                assert len(stored) == len(kept) > 0
                assert all(a is b for a, b in zip(stored, kept))

    def test_two_loads_of_one_population_are_identical(self):
        (first, first_end), (second, second_end) = _load(), _load()
        assert first_end == second_end > 0.0
        for name in TABLE_SCHEMAS:
            rows = list(first.table(name).scan(first_end))
            assert rows == list(second.table(name).scan(second_end))
            assert len(rows) == first.table(name).row_count > 0

    @pytest.mark.parametrize("changed", ["ITEM", "NEW_ORDER"])
    def test_a_table_with_other_columns_is_refused_before_any_insert(self, changed):
        db = _database()
        for name, schema in TABLE_SCHEMAS.items():
            columns = list(schema.columns)
            if name == changed:
                columns.append(Column("extra", ColumnType.INT))
            db.create_table(name, Schema(columns))
        with pytest.raises(SchemaError, match=f"table '{changed}'"):
            load_database(db, tiny_scale(), seed=0, create=False)
        assert all(db.table(name).row_count == 0 for name in TABLE_SCHEMAS)
