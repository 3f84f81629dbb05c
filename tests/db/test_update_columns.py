"""``Table.update_columns``: the column patch against the whole-row update.

A change set of INT/FLOAT columns at fixed offsets is patched into the
stored image; everything else is rebuilt from the old row and written
whole.  Either way the row's page is touched once, so the reference is
``Table.update`` with the old row already in hand.  The two must be
indistinguishable from outside the process: same RIDs, same virtual time,
same buffer traffic, same pages, same log.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.db import Database, Schema, SchemaError, char_col, float_col, int_col, varchar_col

from tests.db.conftest import MemoryBackend

# TPC-C's STOCK in small: key columns, a patched counter, CHAR filler between
# the patched columns, a VARCHAR tail
SCHEMA = Schema(
    [
        int_col("w"),
        int_col("i"),
        int_col("qty"),
        char_col("dist", 24),
        float_col("ytd"),
        int_col("cnt"),
        varchar_col("data", 40),
    ]
)
ROWS = 60


def initial_row(i):
    return (1, i, 50 + i % 7, f"dist-{i}", 0.0, 0, "d" * (i % 30))


def build(wal=True):
    """A loaded table with a unique key index and an index over ``qty``,
    behind a pool small enough to miss, evict and flush all the time."""
    backend = MemoryBackend(page_size=512, io_cost=10.0)
    db = Database(backend, buffer_pages=6, flusher_interval=5, flusher_batch=2)
    table = db.create_table("STOCK", SCHEMA)
    at = db.create_index("S_IDX", "STOCK", ["w", "i"], unique=True)
    at = db.create_index("S_QTY", "STOCK", ["qty", "i"], at=at)
    for i in range(ROWS):
        __, at = table.insert(initial_row(i), at)
    at = db.checkpoint(at)
    if wal:
        db.enable_wal()
    return db, table, at


def whole_row_update(table, rid, row, changes, at):
    """``update_columns`` as a whole-row update of ``row``, the row at
    ``rid`` as the last read returned it: rebuild, ``update`` (one touch)."""
    values = list(row)
    for name, value in changes.items():
        values[SCHEMA.position(name)] = value
    return table.update(rid, tuple(values), at)


def typed(row):
    return [(type(value), repr(value)) for value in row]


def tree_entries(db, name):
    return db.catalog.index(name).btree.range_scan(None, None, 0.0)[0]


numbers = st.one_of(
    st.integers(-(2**40), 2**40),
    st.booleans(),
    st.floats(allow_nan=False, width=32),
    st.sampled_from([-0.0, float("inf")]),
)
change_sets = st.one_of(
    # what the TPC-C transactions send
    st.fixed_dictionaries(
        {"qty": st.integers(0, 100), "ytd": numbers, "cnt": st.integers(-(2**63), 2**63 - 1)}
    ),
    st.fixed_dictionaries({"ytd": numbers}),
    st.fixed_dictionaries({"cnt": st.booleans(), "ytd": numbers}),  # not in schema order
    st.fixed_dictionaries({"qty": st.integers(0, 100)}),  # moves an S_QTY entry
    # not patchable: a CHAR, the VARCHAR (grows and shrinks: rows move), nothing
    st.fixed_dictionaries({"dist": st.text("ab ", max_size=24), "cnt": st.integers(0, 9)}),
    st.fixed_dictionaries({"data": st.text("xy", max_size=40), "qty": st.integers(0, 100)}),
    st.just({}),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, ROWS - 1), change_sets), max_size=50))
def test_column_patch_is_indistinguishable_from_the_whole_row_update(operations):
    (db_a, patched, at_a), (db_b, whole, at_b) = build(), build()
    assert at_a == at_b
    rows = {i: initial_row(i) for i in range(ROWS)}  # as B's reader last saw them
    for i, changes in operations:
        rid_a, at_a = patched.lookup_rid("S_IDX", (1, i), at_a)
        rid_b, at_b = whole.lookup_rid("S_IDX", (1, i), at_b)
        new_a, at_a = patched.update_columns(rid_a, changes, at_a)
        new_b, at_b = whole_row_update(whole, rid_b, rows[i], changes, at_b)
        assert (rid_a, new_a, at_a) == (rid_b, new_b, at_b)
        assert db_a.buffer_pool.stats == db_b.buffer_pool.stats
        assert db_a.wal.next_lsn == db_b.wal.next_lsn
        assert db_a.wal.flushed_pages == db_b.wal.flushed_pages
        # what the next reader gets: A may have kept its row, B decodes again
        row_a, at_a = patched.read(new_a, at_a)
        rows[i], at_b = whole.read(new_b, at_b)
        assert typed(row_a) == typed(rows[i])
    assert db_a.checkpoint(at_a) == db_b.checkpoint(at_b)
    # heap pages, index nodes and log pages, image for image
    assert db_a.backend.images() == db_b.backend.images()
    assert (db_a.backend.reads, db_a.backend.writes) == (db_b.backend.reads, db_b.backend.writes)
    for name in ("S_IDX", "S_QTY"):
        assert tree_entries(db_a, name) == tree_entries(db_b, name)
        db_a.catalog.index(name).btree.check_invariants()
    assert [r for r, __ in db_a.wal.records()] == [r for r, __ in db_b.wal.records()]


class TestRouting:
    def spy_on_encode(self, table):
        """The rows ``update_columns`` rebuilds and encodes whole (a
        patch encodes none)."""
        calls = []
        codec = table.info.heap.codec
        encode = codec.encode
        codec.encode = lambda row: calls.append(row) or encode(row)
        return calls

    def test_fixed_width_change_set_does_not_rebuild_the_row(self):
        __, table, at = build()
        calls = self.spy_on_encode(table)
        rid, at = table.lookup_rid("S_IDX", (1, 3), at)
        table.update_columns(rid, {"ytd": 7, "cnt": True}, at)
        assert calls == []
        row, __ = table.read(rid, at)
        assert typed(row[4:6]) == typed((7.0, 1))

    def test_patched_indexed_column_moves_its_index_entry(self):
        db, table, at = build()
        calls = self.spy_on_encode(table)
        rid, at = table.lookup_rid("S_IDX", (1, 3), at)
        assert table.lookup_rid("S_QTY", (53, 3), at)[0] == rid
        new_rid, at = table.update_columns(rid, {"qty": 99}, at)
        assert calls == [] and new_rid == rid
        assert table.lookup_rid("S_QTY", (53, 3), at)[0] is None
        assert table.lookup_rid("S_QTY", (99, 3), at)[0] == rid
        assert table.lookup_rid("S_IDX", (1, 3), at)[0] == rid  # its columns did not change
        same_rid, at = table.update_columns(rid, {"qty": 99}, at)  # equal key: entry stays
        assert table.lookup_rid("S_QTY", (99, 3), at)[0] == same_rid == rid
        assert len(tree_entries(db, "S_QTY")) == ROWS

    @pytest.mark.parametrize(
        "changes", [{"data": "longer " * 5}, {"dist": "x"}, {"qty": 1, "data": ""}, {}]
    )
    def test_other_change_sets_take_the_whole_row_update(self, changes):
        __, table, at = build()
        calls = self.spy_on_encode(table)
        rid, at = table.lookup_rid("S_IDX", (1, 3), at)
        table.update_columns(rid, changes, at)
        assert len(calls) == 1

    def test_column_behind_a_varchar_is_not_patched(self):
        schema = Schema([int_col("k"), varchar_col("v", 8), int_col("n")])
        db = Database(MemoryBackend(), buffer_pages=8)
        table = db.create_table("T", schema)
        rid, at = table.insert((1, "abc", 2), 0.0)
        calls = self.spy_on_encode(table)
        table.update_columns(rid, {"n": 3}, at)  # its offset depends on v
        assert len(calls) == 1
        table.update_columns(rid, {"k": 3}, at)
        assert len(calls) == 1

    def test_index_created_after_the_first_call_is_maintained(self):
        db = Database(MemoryBackend(), buffer_pages=8)
        table = db.create_table("STOCK", SCHEMA)
        rid, at = table.insert((1, 1, 50, "d", 0.0, 0, ""), 0.0)
        rid, at = table.update_columns(rid, {"qty": 51}, at)  # planned with no index at all
        at = db.create_index("S_QTY", "STOCK", ["qty"], at=at)
        assert table.lookup_rid("S_QTY", (51,), at)[0] == rid
        rid, at = table.update_columns(rid, {"qty": 52}, at)
        assert table.lookup_rid("S_QTY", (51,), at)[0] is None
        assert table.lookup_rid("S_QTY", (52,), at)[0] == rid

    def test_unknown_column_is_refused_every_time(self):
        __, table, at = build()
        rid, at = table.lookup_rid("S_IDX", (1, 3), at)
        for __ in range(2):
            with pytest.raises(SchemaError, match="no column named 'nope'"):
                table.update_columns(rid, {"qty": 1, "nope": 2}, at)


@pytest.mark.parametrize(
    "changes",
    [{"qty": 1.5}, {"qty": 2**63}, {"ytd": "7"}, {"ytd": 10**400}, {"cnt": None, "ytd": 1.0}],
    ids=["float-into-int", "int-out-of-range", "str-into-float", "float-overflow", "second-of-two"],
)
def test_refused_patch_changes_nothing(changes):
    db, table, at = build()
    rid, at = table.lookup_rid("S_IDX", (1, 3), at)
    row, at = table.read(rid, at)
    at = db.checkpoint(at)  # nothing dirty, log empty: any write below would show
    images, lsn, writes = dict(db.backend.pages), db.wal.next_lsn, db.backend.writes
    with pytest.raises(SchemaError) as refused:
        table.update_columns(rid, changes, at)
    values = list(row)
    for name, value in changes.items():
        values[SCHEMA.position(name)] = value
    with pytest.raises(SchemaError) as expected:
        table.info.heap.codec.encode(tuple(values))
    assert str(refused.value) == str(expected.value)
    assert db.wal.next_lsn == lsn
    assert table.read(rid, at)[0] is row  # the kept row, not a changed copy
    db.checkpoint(at)
    assert db.backend.writes == writes + 1  # the checkpoint's own log page, no data page
    assert {k: v for k, v in db.backend.pages.items() if k in images} == images
